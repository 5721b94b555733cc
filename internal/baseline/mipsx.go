package baseline

import (
	"vmp/internal/sim"
	"vmp/internal/trace"
)

// MIPSX models the compiler-directed scheme of Agarwal & Horowitz
// referenced in Section 6: caches have no consistency hardware at all;
// the compiler emits cache-flush instructions so that all (potentially)
// shared data is flushed in anticipation of shared access, at every
// synchronization point. The paper's contrast: "the MIPS-X scheme must
// flush all shared data in anticipation of shared access whereas the
// VMP scheme only flushes on demand."
type MIPSX struct {
	caches   []*snoopCache
	isShared func(addr uint32) bool
	stats    MIPSXStats
	timing   busTiming
}

// MIPSXStats accounts the scheme's cache and traffic events.
type MIPSXStats struct {
	Refs         uint64
	Misses       uint64
	SyncFlushes  uint64 // shared lines flushed at sync points
	WriteBacks   uint64
	Transactions uint64
	BusBytes     uint64
	BusTime      sim.Time
}

// MissRatio returns misses per reference.
func (s MIPSXStats) MissRatio() float64 {
	if s.Refs == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Refs)
}

// NewMIPSX builds an n-processor system with the given cache geometry.
// isShared classifies addresses the compiler must treat as shared.
func NewMIPSX(n int, cfg Config, isShared func(addr uint32) bool) *MIPSX {
	m := &MIPSX{
		isShared: isShared,
		timing:   busTiming{addr: 300 * sim.Nanosecond, word: 100 * sim.Nanosecond},
	}
	for i := 0; i < n; i++ {
		m.caches = append(m.caches, newSnoopCache(cfg))
	}
	return m
}

func (m *MIPSX) busTransfer(n int) {
	m.stats.Transactions++
	m.stats.BusBytes += uint64(n)
	m.stats.BusTime += m.timing.addr + sim.Time(n/4)*m.timing.word
}

// Step performs one reference on one processor (no snooping: the caches
// are completely independent between sync points).
func (m *MIPSX) Step(cpu int, r trace.Ref) {
	m.stats.Refs++
	c := m.caches[cpu]
	set, way := c.find(r.VAddr)
	if way >= 0 {
		if r.IsWrite() {
			c.sets[set][way].state = lsModified
		}
		c.touch(set, way)
		return
	}
	m.stats.Misses++
	// Evict.
	w := c.victim(set)
	if c.sets[set][w].state == lsModified {
		m.stats.WriteBacks++
		m.busTransfer(c.cfg.LineSize)
	}
	m.busTransfer(c.cfg.LineSize)
	_, tag := c.index(r.VAddr)
	st := lsShared
	if r.IsWrite() {
		st = lsModified
	}
	c.sets[set][w] = line{tag: tag, state: st}
	c.touch(set, w)
}

// Sync is a synchronization point on one processor: every line holding
// a shared address is written back (if dirty) and invalidated,
// whether or not any other processor will ever touch it — the
// anticipatory flush the paper contrasts with VMP's on-demand scheme.
func (m *MIPSX) Sync(cpu int) {
	c := m.caches[cpu]
	for set := range c.sets {
		for way := range c.sets[set] {
			ln := &c.sets[set][way]
			if ln.state == lsInvalid {
				continue
			}
			addr := ln.tag * uint32(c.cfg.LineSize)
			if !m.isShared(addr) {
				continue
			}
			if ln.state == lsModified {
				m.stats.WriteBacks++
				m.busTransfer(c.cfg.LineSize)
			}
			ln.state = lsInvalid
			m.stats.SyncFlushes++
		}
	}
}

// Run interleaves streams round-robin, invoking Sync on a processor
// every syncEvery of its references (0 disables syncs).
func (m *MIPSX) Run(streams [][]trace.Ref, syncEvery int) MIPSXStats {
	pos := make([]int, len(streams))
	count := make([]int, len(streams))
	for {
		progress := false
		for cpu := range streams {
			if pos[cpu] >= len(streams[cpu]) {
				continue
			}
			r := streams[cpu][pos[cpu]]
			pos[cpu]++
			progress = true
			m.Step(cpu, r)
			count[cpu]++
			if syncEvery > 0 && count[cpu]%syncEvery == 0 {
				m.Sync(cpu)
			}
		}
		if !progress {
			// Final sync on every processor (end of parallel section).
			if syncEvery > 0 {
				for cpu := range streams {
					m.Sync(cpu)
				}
			}
			return m.stats
		}
	}
}
