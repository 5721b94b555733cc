// Package baseline implements the comparison cache-consistency schemes
// discussed in Section 6 of the paper, so the VMP design can be judged
// against the alternatives on the same workloads:
//
//   - write-invalidate snooping (an MSI protocol in the style of
//     Goodman's write-once and the Synapse ownership protocol, but with
//     the small line sizes and hardware miss handling that snoopy
//     caches require);
//   - write-broadcast snooping (Firefly/Dragon style: writes to shared
//     lines broadcast the word on every update, which is why such
//     designs cannot use large cache pages);
//   - the MIPS-X compiler-directed scheme: no consistency hardware at
//     all; software flushes shared data from the cache at
//     synchronization points, in anticipation of sharing.
//
// These are trace-driven models with bus-traffic accounting rather than
// full timing simulations: Section 6's comparison is about traffic and
// hardware complexity, and traffic is what these models measure.
package baseline

import (
	"fmt"

	"vmp/internal/sim"
	"vmp/internal/trace"
)

// Protocol selects the consistency scheme.
type Protocol int

// The protocols.
const (
	WriteInvalidate Protocol = iota
	WriteBroadcast
)

// String names the protocol.
func (p Protocol) String() string {
	switch p {
	case WriteInvalidate:
		return "write-invalidate"
	case WriteBroadcast:
		return "write-broadcast"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// Config fixes the snoopy cache geometry. Snoopy designs use small
// lines (the paper: broadcasting "precludes the use of the large cache
// page sizes required for very low cache miss rates").
type Config struct {
	Protocol  Protocol
	LineSize  int // typically 16 or 32 bytes
	CacheSize int // per processor
	Assoc     int
}

// DefaultConfig returns a representative mid-1980s snoopy cache: 16-byte
// lines, 64 KB, 2-way.
func DefaultConfig(p Protocol) Config {
	return Config{Protocol: p, LineSize: 16, CacheSize: 64 << 10, Assoc: 2}
}

// Stats accounts bus traffic and cache events across the system.
type Stats struct {
	Refs           uint64
	Misses         uint64
	Invalidations  uint64 // lines invalidated by foreign activity
	WordBroadcasts uint64 // write-broadcast word updates
	WriteBacks     uint64
	Transactions   uint64
	BusBytes       uint64
	BusTime        sim.Time
}

// MissRatio returns misses per reference.
func (s Stats) MissRatio() float64 {
	if s.Refs == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Refs)
}

type lineState uint8

const (
	lsInvalid lineState = iota
	lsShared
	lsModified // write-invalidate: owned dirty; write-broadcast: exclusive
)

type line struct {
	tag   uint32
	state lineState
}

type snoopCache struct {
	cfg   Config
	sets  [][]line
	nsets int
	tick  uint64
	lru   [][]uint64
}

func newSnoopCache(cfg Config) *snoopCache {
	nsets := cfg.CacheSize / (cfg.LineSize * cfg.Assoc)
	c := &snoopCache{cfg: cfg, nsets: nsets}
	c.sets = make([][]line, nsets)
	c.lru = make([][]uint64, nsets)
	for i := range c.sets {
		c.sets[i] = make([]line, cfg.Assoc)
		c.lru[i] = make([]uint64, cfg.Assoc)
	}
	return c
}

func (c *snoopCache) index(addr uint32) (set int, tag uint32) {
	lineNum := addr / uint32(c.cfg.LineSize)
	return int(lineNum) % c.nsets, lineNum
}

// find returns the way holding addr, or -1.
func (c *snoopCache) find(addr uint32) (set, way int) {
	set, tag := c.index(addr)
	for w := range c.sets[set] {
		if c.sets[set][w].state != lsInvalid && c.sets[set][w].tag == tag {
			return set, w
		}
	}
	return set, -1
}

// victim returns the way to replace in set.
func (c *snoopCache) victim(set int) int {
	best := 0
	for w := range c.sets[set] {
		if c.sets[set][w].state == lsInvalid {
			return w
		}
		if c.lru[set][w] < c.lru[set][best] {
			best = w
		}
	}
	return best
}

func (c *snoopCache) touch(set, way int) {
	c.tick++
	c.lru[set][way] = c.tick
}

// System is an n-processor snoopy-cache system.
type System struct {
	cfg    Config
	caches []*snoopCache
	stats  Stats
	timing busTiming
}

type busTiming struct {
	addr sim.Time
	word sim.Time
}

// NewSystem builds a system of n processors.
func NewSystem(n int, cfg Config) *System {
	s := &System{cfg: cfg, timing: busTiming{addr: 300 * sim.Nanosecond, word: 100 * sim.Nanosecond}}
	for i := 0; i < n; i++ {
		s.caches = append(s.caches, newSnoopCache(cfg))
	}
	return s
}

// busTransfer accounts one bus transaction moving n bytes (n = 0 for
// address-only transactions such as invalidations).
func (s *System) busTransfer(n int) {
	s.stats.Transactions++
	s.stats.BusBytes += uint64(n)
	s.stats.BusTime += s.timing.addr + sim.Time(n/4)*s.timing.word
}

// Run interleaves the streams round-robin, one reference per processor
// per turn, until all streams drain. The interleaving approximates
// concurrent execution; Section 6's comparison is about traffic, which
// is interleaving-insensitive for these protocols.
func (s *System) Run(streams [][]trace.Ref) Stats {
	if len(streams) != len(s.caches) {
		panic("baseline: stream count != processor count")
	}
	pos := make([]int, len(streams))
	for {
		progress := false
		for cpu := range streams {
			if pos[cpu] >= len(streams[cpu]) {
				continue
			}
			r := streams[cpu][pos[cpu]]
			pos[cpu]++
			progress = true
			s.step(cpu, r)
		}
		if !progress {
			return s.stats
		}
	}
}

// step performs one reference on one processor's cache.
func (s *System) step(cpu int, r trace.Ref) {
	s.stats.Refs++
	c := s.caches[cpu]
	addr := r.VAddr
	set, way := c.find(addr)

	if r.IsWrite() {
		s.write(cpu, c, addr, set, way)
	} else {
		s.read(cpu, c, addr, set, way)
	}
}

func (s *System) read(cpu int, c *snoopCache, addr uint32, set, way int) {
	if way >= 0 {
		c.touch(set, way)
		return
	}
	// Read miss: fetch the line; a modified copy elsewhere supplies it
	// (write-invalidate) or is downgraded (write-broadcast keeps all
	// copies consistent already).
	s.stats.Misses++
	s.evict(c, set)
	_, tag := c.index(addr)
	for other, oc := range s.caches {
		if other == cpu {
			continue
		}
		oset, oway := oc.find(addr)
		if oway >= 0 && oc.sets[oset][oway].state == lsModified {
			// Flush the dirty copy to memory, then both share.
			s.stats.WriteBacks++
			s.busTransfer(s.cfg.LineSize)
			oc.sets[oset][oway].state = lsShared
		}
	}
	s.busTransfer(s.cfg.LineSize)
	w := c.victim(set)
	st := lsShared
	if s.cfg.Protocol == WriteBroadcast && !s.anyOtherCopy(cpu, addr) {
		st = lsModified // exclusive, writes stay local
	}
	c.sets[set][w] = line{tag: tag, state: st}
	c.touch(set, w)
}

func (s *System) write(cpu int, c *snoopCache, addr uint32, set, way int) {
	switch s.cfg.Protocol {
	case WriteInvalidate:
		s.writeInvalidate(cpu, c, addr, set, way)
	case WriteBroadcast:
		s.writeBroadcast(cpu, c, addr, set, way)
	}
}

func (s *System) writeInvalidate(cpu int, c *snoopCache, addr uint32, set, way int) {
	if way >= 0 && c.sets[set][way].state == lsModified {
		c.touch(set, way)
		return
	}
	if way >= 0 && c.sets[set][way].state == lsShared {
		// Upgrade: address-only invalidation transaction.
		s.busTransfer(0)
		s.invalidateOthers(cpu, addr)
		c.sets[set][way].state = lsModified
		c.touch(set, way)
		return
	}
	// Write miss: read-exclusive.
	s.stats.Misses++
	s.evict(c, set)
	for other, oc := range s.caches {
		if other == cpu {
			continue
		}
		oset, oway := oc.find(addr)
		if oway >= 0 {
			if oc.sets[oset][oway].state == lsModified {
				s.stats.WriteBacks++
				s.busTransfer(s.cfg.LineSize)
			}
			oc.sets[oset][oway].state = lsInvalid
			s.stats.Invalidations++
		}
	}
	s.busTransfer(s.cfg.LineSize)
	_, tag := c.index(addr)
	w := c.victim(set)
	c.sets[set][w] = line{tag: tag, state: lsModified}
	c.touch(set, w)
}

func (s *System) writeBroadcast(cpu int, c *snoopCache, addr uint32, set, way int) {
	if way < 0 {
		// Miss: fetch first (read path), then apply the write rule.
		s.read(cpu, c, addr, set, -1)
		set, way = c.find(addr)
	}
	ln := &c.sets[set][way]
	c.touch(set, way)
	if ln.state == lsModified && !s.anyOtherCopy(cpu, addr) {
		// Exclusive: the write stays local.
		return
	}
	// Shared: broadcast the word to memory and every sharer — the
	// per-update bus cost that rules out large pages.
	ln.state = lsShared
	s.stats.WordBroadcasts++
	s.busTransfer(4)
}

// anyOtherCopy reports whether a valid copy exists in another cache.
func (s *System) anyOtherCopy(cpu int, addr uint32) bool {
	for other, oc := range s.caches {
		if other == cpu {
			continue
		}
		if _, oway := oc.find(addr); oway >= 0 {
			return true
		}
	}
	return false
}

// invalidateOthers kills all foreign copies (write-invalidate upgrade).
func (s *System) invalidateOthers(cpu int, addr uint32) {
	for other, oc := range s.caches {
		if other == cpu {
			continue
		}
		oset, oway := oc.find(addr)
		if oway >= 0 {
			oc.sets[oset][oway].state = lsInvalid
			s.stats.Invalidations++
		}
	}
}

// evict writes back the victim line if dirty (called before a fill).
func (s *System) evict(c *snoopCache, set int) {
	w := c.victim(set)
	if c.sets[set][w].state == lsModified {
		s.stats.WriteBacks++
		s.busTransfer(s.cfg.LineSize)
	}
	c.sets[set][w].state = lsInvalid
}
