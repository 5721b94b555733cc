package core

import (
	"fmt"

	"vmp/internal/bus"
	"vmp/internal/cache"
	"vmp/internal/monitor"
	"vmp/internal/sim"
)

// CPU is the program-driven processor front end: simulated programs are
// Go functions issuing loads, stores, test-and-sets and compute delays.
// All data accesses go through the board's cache and miss handler, so a
// program observes exactly the consistency behaviour the protocol
// provides. Word values live in the simulated main memory.
type CPU struct {
	p    *sim.Process
	b    *Board
	asid uint8
	supr bool
}

// Board returns the board this CPU runs on.
func (c *CPU) Board() *Board { return c.b }

// Process exposes the underlying simulation process (for kernel
// primitives that need to block).
func (c *CPU) Process() *sim.Process { return c.p }

// Now returns the current simulated time.
func (c *CPU) Now() sim.Time { return c.p.Now() }

// SetASID switches the address space the CPU issues references in
// (the operating system writing the ASID register on context switch).
func (c *CPU) SetASID(asid uint8) { c.asid = asid }

// ASID returns the current address-space identifier.
func (c *CPU) ASID() uint8 { return c.asid }

// SetSupervisor switches between supervisor and user mode.
func (c *CPU) SetSupervisor(on bool) { c.supr = on }

// Compute burns n instructions of CPU time. The bus monitor's
// interrupt is non-maskable and taken between instructions, so long
// computations stay responsive: the simulator services pending words
// every few simulated instructions rather than modeling each boundary.
func (c *CPU) Compute(n int) {
	const chunk = 16
	for n > 0 {
		k := n
		if k > chunk {
			k = chunk
		}
		c.p.Delay(sim.Time(k) * c.b.timing().InstrTime)
		c.b.ServiceInterrupts(c.p)
		n -= k
	}
}

// ComputeUninterruptible burns n instructions without ever servicing
// the bus monitor — an interrupt-disabled critical stretch (or a block
// transfer stall), used to exercise the FIFO-overflow recovery path.
func (c *CPU) ComputeUninterruptible(n int) {
	c.p.Delay(sim.Time(n) * c.b.timing().InstrTime)
}

// Idle advances time without issuing references, but stays responsive:
// the bus monitor's non-maskable interrupt is serviced as soon as a
// word arrives, so an idle processor releases contested pages promptly.
func (c *CPU) Idle(d sim.Time) {
	deadline := c.p.Now() + d
	for {
		c.b.ServiceInterrupts(c.p)
		remaining := deadline - c.p.Now()
		if remaining <= 0 {
			return
		}
		if c.b.Mon.Pending() > 0 || c.b.Mon.Dropped() {
			continue
		}
		c.b.intrSig.WaitTimeout(c.p, remaining)
	}
}

// access runs one reference, charging one instruction of CPU time, and
// panics on protection faults: simulated programs are supposed to be
// correct, so a fault is a test bug worth failing loudly.
func (c *CPU) access(vaddr uint32, write bool) {
	c.p.Delay(c.b.timing().RefTime())
	err := c.b.Access(c.p, c.asid, vaddr, cache.Access{Write: write, Super: c.supr})
	if err != nil {
		panic(fmt.Sprintf("core: program fault: %v", err))
	}
}

// Load reads the word at vaddr through the cache.
func (c *CPU) Load(vaddr uint32) uint32 {
	c.access(vaddr, false)
	paddr, ok := c.b.PAddrOf(c.asid, vaddr)
	if !ok {
		panic("core: load missed after fill")
	}
	return c.b.m.Mem.ReadWord(paddr)
}

// Store writes the word at vaddr through the cache, taking ownership of
// its page.
func (c *CPU) Store(vaddr uint32, v uint32) {
	c.access(vaddr, true)
	paddr, ok := c.b.PAddrOf(c.asid, vaddr)
	if !ok {
		panic("core: store missed after fill")
	}
	c.b.m.Mem.WriteWord(paddr, v)
}

// TAS is an atomic test-and-set: it returns the old word and leaves the
// word set to 1. Atomicity comes from ownership: the write path acquires
// the page private, and no other processor can touch the page until
// this instruction completes (interrupts are serviced only between
// instructions). This is the "conventional test-and-set" whose cache
// behaviour Section 5.4 warns about.
func (c *CPU) TAS(vaddr uint32) uint32 {
	c.access(vaddr, true)
	paddr, ok := c.b.PAddrOf(c.asid, vaddr)
	if !ok {
		panic("core: tas missed after fill")
	}
	old := c.b.m.Mem.ReadWord(paddr)
	c.b.m.Mem.WriteWord(paddr, 1)
	return old
}

// LoadUncached reads a word of global memory without caching it: a
// plain bus transaction, as used for kernel locks placed in non-cached,
// globally addressable physical memory (Section 5.4).
func (c *CPU) LoadUncached(paddr uint32) uint32 {
	c.p.Delay(c.b.timing().UncachedAccess)
	c.b.m.Bus.Do(c.p, bus.Transaction{Op: bus.PlainRead, PAddr: paddr, Bytes: 4, Requester: c.b.ID})
	return c.b.m.Mem.ReadWord(paddr)
}

// StoreUncached writes a word of global memory without caching it.
func (c *CPU) StoreUncached(paddr uint32, v uint32) {
	c.p.Delay(c.b.timing().UncachedAccess)
	c.b.m.Bus.Do(c.p, bus.Transaction{Op: bus.PlainWrite, PAddr: paddr, Bytes: 4, Requester: c.b.ID})
	c.b.m.Mem.WriteWord(paddr, v)
}

// TASUncached is an atomic test-and-set on uncached global memory. The
// bus transaction serializes competing processors.
func (c *CPU) TASUncached(paddr uint32) uint32 {
	c.p.Delay(c.b.timing().UncachedAccess)
	c.b.m.Bus.Do(c.p, bus.Transaction{Op: bus.PlainRead, PAddr: paddr, Bytes: 4, Requester: c.b.ID})
	old := c.b.m.Mem.ReadWord(paddr)
	c.b.m.Mem.WriteWord(paddr, 1)
	return old
}

// Notify issues a notification bus transaction for the page holding
// paddr: every processor whose action-table entry for that frame is 11
// receives an interrupt word (the bus monitor's notification facility).
func (c *CPU) Notify(paddr uint32) {
	c.b.m.Bus.Do(c.p, bus.Transaction{Op: bus.Notify, PAddr: paddr, Requester: c.b.ID})
}

// WatchNotify sets this board's action-table entry for the frame
// holding paddr to Notify (11) via a write-action-table transaction.
func (c *CPU) WatchNotify(paddr uint32) {
	c.b.m.Bus.Do(c.p, bus.Transaction{
		Op: bus.WriteActionTable, PAddr: paddr, Requester: c.b.ID, Action: uint8(monitor.Notify),
	})
}

// UnwatchNotify clears the entry back to Ignore.
func (c *CPU) UnwatchNotify(paddr uint32) { c.b.clearEntry(c.p, paddr) }

// ServiceInterrupts lets a program service pending consistency
// interrupts explicitly (they are also serviced before every access).
func (c *CPU) ServiceInterrupts() { c.b.ServiceInterrupts(c.p) }

// WaitInterrupt pauses until the bus monitor posts a word (used by the
// kernel's notification locks), then services it.
func (c *CPU) WaitInterrupt() {
	for c.b.Mon.Pending() == 0 && !c.b.Mon.Dropped() {
		c.b.intrSig.Wait(c.p)
	}
	c.b.ServiceInterrupts(c.p)
}
