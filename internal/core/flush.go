package core

import (
	"sort"

	"vmp/internal/sim"
)

// FlushCache empties the whole cache: dirty private pages are written
// back, everything else is dropped, and the action-table entries are
// cleared. This is what a machine *without* ASID tags would have to do
// on every context switch — provided for the ASID ablation and for
// orderly shutdown. Costs are charged per page like the normal
// eviction paths.
func (b *Board) FlushCache(p *sim.Process) {
	frames := make([]uint32, 0, len(b.frames))
	for f := range b.frames {
		frames = append(frames, f)
	}
	sort.Slice(frames, func(i, j int) bool { return frames[i] < frames[j] })
	for _, frame := range frames {
		fi := b.frames[frame]
		if fi == nil {
			continue
		}
		p.Delay(b.timing().Handler.RecoveryPerPage)
		if fi.state == psPrivate {
			b.releaseOwnership(p, frame, fi, false)
			continue
		}
		b.dropCopies(frame, fi)
		b.clearEntry(p, b.frameAddr(frame))
	}
}

// FlushCache is also available from program context.
func (c *CPU) FlushCache() { c.b.FlushCache(c.p) }
