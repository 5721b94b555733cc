package core

import (
	"vmp/internal/cache"
	"vmp/internal/sim"
	"vmp/internal/vm"
)

// RemapPage performs the translation-consistency sequence of
// Section 3.4 to change the mapping of the VM page containing vaddr:
//
//  1. take exclusive ownership of the cache page holding the page-table
//     entry (a write access to the entry through the cache, which
//     issues read-private or assert-ownership as needed);
//  2. assert-ownership on every cache page of the old physical page, so
//     all cached copies — whose tags implicitly encode the old
//     translation — are flushed or written back everywhere;
//  3. update the page-table entry.
//
// Ownership of the touched cache pages is relinquished lazily, as the
// protocol always does. A zero newPTE unmaps the page.
func (b *Board) RemapPage(p *sim.Process, asid uint8, vaddr uint32, newPTE vm.PTE) error {
	walk, err := b.m.VM.Translate(asid, vaddr, false, true)
	if err != nil {
		if f, ok := err.(*vm.Fault); !ok || f.Prot {
			return err
		}
		// Page not present: nothing cached anywhere; just install.
		_, _, err := b.m.VM.Remap(asid, vaddr, newPTE)
		return err
	}

	// 1. Exclusive ownership of the page-table entry's cache page.
	if walk.L2VAddr != 0 {
		if err := b.Access(p, asid, walk.L2VAddr, cache.Access{Write: true, Super: true}); err != nil {
			return err
		}
	}

	// 2. Flush the old physical page from every cache.
	b.flushVMPage(p, walk.PTE.Frame())

	// 3. Update the entry.
	_, _, err = b.m.VM.Remap(asid, vaddr, newPTE)
	return err
}

// DestroySpaceFlush tears down an address space and flushes every page
// it mapped out of all caches (Section 3.4: "Deletion of an address
// space can be handled similarly with an assert-ownership on every
// resident page in the address space").
func (b *Board) DestroySpaceFlush(p *sim.Process, asid uint8) error {
	frames, err := b.m.VM.DestroySpace(asid)
	if err != nil {
		return err
	}
	for _, vf := range frames {
		b.flushVMPage(p, vf)
	}
	return nil
}

// RemapPage is the CPU-level wrapper for Board.RemapPage.
func (c *CPU) RemapPage(vaddr uint32, newPTE vm.PTE) error {
	return c.b.RemapPage(c.p, c.asid, vaddr, newPTE)
}

// DestroySpace is the CPU-level wrapper for Board.DestroySpaceFlush.
func (c *CPU) DestroySpace(asid uint8) error {
	return c.b.DestroySpaceFlush(c.p, asid)
}

// FlushPage forces the cache page at physical address paddr out of all
// caches (the page-out daemon's per-page flush).
func (c *CPU) FlushPage(paddr uint32) { c.b.assertFlush(c.p, paddr) }

// ProtectRegion and UnprotectRegion expose DMA-region guarding at the
// CPU level.
func (c *CPU) ProtectRegion(paddr uint32, bytes int)   { c.b.ProtectRegion(c.p, paddr, bytes) }
func (c *CPU) UnprotectRegion(paddr uint32, bytes int) { c.b.UnprotectRegion(c.p, paddr, bytes) }

// Sleep pauses the CPU for the given duration (alias of Idle for
// program readability).
func (c *CPU) Sleep(d sim.Time) { c.p.Delay(d) }
