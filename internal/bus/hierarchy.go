package bus

import (
	"fmt"

	"vmp/internal/obs"
	"vmp/internal/protocol"
	"vmp/internal/sim"
	"vmp/internal/stats"
)

// Hierarchy is the multi-bus interconnect, in the spirit of Cheriton's
// VMP-MC follow-up: boards are grouped onto local bus segments, and the
// segments are joined by a single inter-bus link that carries only
// consistency actions. Each segment is a Bus, and a transaction commits
// on its requester's segment through the flat bus's own transaction
// body. Main memory is multi-ported with a bank port on every segment,
// so data transfers (page fills, write-backs, DMA) run entirely on the
// requester's local bus at the ordinary VMEbus timing — monitors and
// copiers keep their exact single-bus behaviour.
//
// What crosses the link is the consistency-check broadcast, and only
// when it must: a per-page-frame inclusion filter (a coarse directory
// of one presence bit per board) records which boards may hold a
// non-Ignore action-table entry for the frame. A consistency
// transaction is forwarded over the link to exactly the remote segments
// whose boards appear in the frame's presence mask. The filter is
// conservative: a false positive (forwarding to a segment with no live
// entry) wastes a probe and nothing else, while a false negative would
// let a remote monitor miss a check it needed to abort or be
// interrupted by — so bits are set pessimistically and cleared only
// from an exact read-back of the requester's own monitor after its
// table update.
//
// Atomicity across segments is the page busy bit: a consistency
// transaction (or action-table write) holds its frame's directory entry
// busy from first check to final table update, and a second transaction
// on a busy frame waits at arbitration granularity before re-requesting
// the frame. Per-frame serialization is exactly the atomicity one bus
// semaphore gives the single-bus machine, so the shadow-oracle watchdog
// observes transactions in commit order with no cross-segment races.
// Transactions on different frames proceed concurrently across
// segments; the deadlock-free lock order is frame busy bit, then link,
// then one segment semaphore at a time.
type Hierarchy struct {
	eng      *sim.Engine
	timing   Timing
	topo     Topology
	pageSize int

	// segs are the local buses. Each is a full Bus running the one
	// transaction body; the hierarchy adds only the frame busy bits,
	// the inclusion filter and the link.
	segs []*Bus
	link *sim.Semaphore

	inj  Injector
	sink *obs.Sink

	// dir is the inclusion filter plus busy bit, per page frame,
	// created on first touch. Accessed by key only (never iterated), so
	// no map-order dependence can arise.
	dir map[uint32]*dirEntry
	// boardSnoop finds the requester's own monitor for the filter
	// read-back.
	boardSnoop map[int]Snooper

	linkBusy  *stats.Counter
	linkCross *stats.Counter
	linkAbort *stats.Counter
	filtered  *stats.Counter // consistency transactions kept local by the filter
	waits     *stats.Counter // busy-frame arbitration waits
}

// dirEntry is one page frame's directory state.
type dirEntry struct {
	// boards is the inclusion filter: bit i set means board i may hold
	// a non-Ignore action-table entry for the frame.
	boards uint64
	// busy marks a consistency transaction in flight on the frame.
	busy bool
}

// ActionReader is the optional snooper surface the filter uses for
// exact presence updates: after a transaction's table update it reads
// the requester's entry back instead of guessing from the op, so a
// board's bit clears the moment its entry returns to Ignore whatever
// the protocol's transition table decided. bus monitors implement it.
type ActionReader interface {
	Action(paddr uint32) protocol.Action
}

// NewHierarchy creates a multi-bus interconnect on the engine with
// default timing. pageSize is the machine's cache-page frame size (the
// directory's granularity). The topology must already be validated.
func NewHierarchy(eng *sim.Engine, topo Topology, pageSize int) *Hierarchy {
	rec := eng.Recorder()
	h := &Hierarchy{
		eng:        eng,
		timing:     DefaultTiming(),
		topo:       topo,
		pageSize:   pageSize,
		link:       sim.NewSemaphore(1),
		dir:        make(map[uint32]*dirEntry),
		boardSnoop: make(map[int]Snooper),
		linkBusy:   rec.Counter("bus/link/busy-ns"),
		linkCross:  rec.Counter("bus/link/crossings"),
		linkAbort:  rec.Counter("bus/link/aborts"),
		filtered:   rec.Counter("bus/link/filtered-local"),
		waits:      rec.Counter("bus/frame-waits"),
	}
	for i := 0; i < topo.Buses; i++ {
		seg := New(eng)
		seg.tag = uint8(1 + i)
		seg.segBusy = rec.Counter(fmt.Sprintf("bus/seg%d/busy-ns", i))
		h.segs = append(h.segs, seg)
	}
	return h
}

// SetInjector implements Interconnect. The same injector serves both
// the per-segment transaction faults and the link-level transient
// aborts, so one seeded fault plan covers the whole interconnect.
func (h *Hierarchy) SetInjector(inj Injector) {
	h.inj = inj
	for _, seg := range h.segs {
		seg.SetInjector(inj)
	}
}

// SetSink implements Interconnect.
func (h *Hierarchy) SetSink(s *obs.Sink) {
	h.sink = s
	for _, seg := range h.segs {
		seg.SetSink(s)
	}
}

// SetObserver implements Interconnect. The observer runs once per
// logical transaction with the merged (local + remote) result, while
// the home segment is still held and the frame is still busy, so the
// watchdog's shadow sees one serialized stream in commit order exactly
// as on a single bus.
func (h *Hierarchy) SetObserver(fn func(Transaction, Result)) {
	for _, seg := range h.segs {
		seg.SetObserver(fn)
	}
}

// SetTiming implements Interconnect.
func (h *Hierarchy) SetTiming(t Timing) {
	h.timing = t
	for _, seg := range h.segs {
		seg.SetTiming(t)
	}
}

// Timing implements Interconnect.
func (h *Hierarchy) Timing() Timing { return h.timing }

// Attach implements Interconnect, placing the monitor on its board's
// segment.
func (h *Hierarchy) Attach(s Snooper) {
	h.segs[h.topo.SegmentOf(s.BoardID())].Attach(s)
	h.boardSnoop[s.BoardID()] = s
}

// Stats implements Interconnect. The segments share the machine-wide
// counters, so any one of them reports the whole interconnect;
// BusyTime aggregates the occupancy of every segment (link time is
// reported separately via LinkStats).
func (h *Hierarchy) Stats() Stats { return h.segs[0].Stats() }

// LinkStats reports the inter-bus link counters.
type LinkStats struct {
	// Crossings is the number of consistency transactions that paid a
	// link broadcast; FilteredLocal the number the inclusion filter
	// kept on their home segment.
	Crossings     uint64
	FilteredLocal uint64
	// Aborts counts link-level injected transient aborts.
	Aborts uint64
	// BusyTime is the link occupancy.
	BusyTime sim.Time
	// FrameWaits counts arbitration waits on a busy frame (the
	// cross-segment serialization cost).
	FrameWaits uint64
}

// LinkStats returns the link-side counters.
func (h *Hierarchy) LinkStats() LinkStats {
	return LinkStats{
		Crossings:     uint64(h.linkCross.Value()),
		FilteredLocal: uint64(h.filtered.Value()),
		Aborts:        uint64(h.linkAbort.Value()),
		BusyTime:      sim.Time(h.linkBusy.Value()),
		FrameWaits:    uint64(h.waits.Value()),
	}
}

// SegmentUtilization returns one segment's occupancy divided by
// elapsed simulated time.
func (h *Hierarchy) SegmentUtilization(i int) float64 {
	if h.eng.Now() == 0 || i < 0 || i >= len(h.segs) {
		return 0
	}
	return float64(h.segs[i].segBusy.Value()) / float64(h.eng.Now())
}

// Utilization implements Interconnect: the mean per-segment
// utilization, comparable to the single bus's figure and to the
// queuing model's per-bus prediction. The segments share the
// machine-wide bus/busy-ns counter, so any one holds the total.
func (h *Hierarchy) Utilization() float64 {
	if h.eng.Now() == 0 || len(h.segs) == 0 {
		return 0
	}
	return float64(h.segs[0].busy.Value()) / (float64(h.eng.Now()) * float64(len(h.segs)))
}

// entry returns (creating on first touch) a frame's directory entry.
func (h *Hierarchy) entry(frame uint32) *dirEntry {
	e, ok := h.dir[frame]
	if !ok {
		e = &dirEntry{}
		h.dir[frame] = e
	}
	return e
}

func (h *Hierarchy) frameOf(paddr uint32) uint32 { return paddr / uint32(h.pageSize) }

// Presence returns the inclusion filter's board mask for the frame
// containing paddr (tests and tools; a zero mask means no board may
// hold the page).
func (h *Hierarchy) Presence(paddr uint32) uint64 {
	if e, ok := h.dir[h.frameOf(paddr)]; ok {
		return e.boards
	}
	return 0
}

// segMask returns the mask of boards on segment s, for intersecting
// with a frame's presence mask.
func (h *Hierarchy) segMask(s int) uint64 {
	lo := s * h.topo.BoardsPerBus
	hi := lo + h.topo.BoardsPerBus
	if hi > MaxBoards {
		hi = MaxBoards
	}
	if lo >= hi {
		return 0
	}
	m := ^uint64(0) << uint(lo)
	if hi < MaxBoards {
		m &^= ^uint64(0) << uint(hi)
	}
	return m
}

// Do implements Interconnect. Plain (DMA/device) transfers run
// entirely on the home segment. Consistency transactions and
// action-table writes first acquire their frame's busy bit; the
// consistency-check broadcast then crosses the link to every remote
// segment the inclusion filter implicates, and the transaction itself
// (transfer timing, table update, fault injection, observer) runs on
// the home segment with the merged remote reactions folded in.
//
//vmplint:hotpath
func (h *Hierarchy) Do(p *sim.Process, tx Transaction) Result {
	home := h.topo.SegmentOf(tx.Requester)
	if !tx.Op.ConsistencyRelated() && tx.Op != WriteActionTable {
		return h.segs[home].Do(p, tx)
	}

	frame := h.frameOf(tx.PAddr)
	e := h.entry(frame)
	for e.busy {
		// Another segment's transaction holds the frame: wait one
		// arbitration slot and re-request. The holder never waits on a
		// second frame, so this always drains.
		h.waits.Inc()
		p.Delay(h.timing.ArbAddr)
	}
	e.busy = true

	var res Result
	if tx.Op.ConsistencyRelated() {
		remote := e.boards &^ h.segMask(home)
		if remote != 0 {
			res = h.crossLink(p, tx, remote)
		} else {
			h.filtered.Inc()
		}
	}
	res = h.segs[home].do(p, tx, res)
	if !res.Aborted && !res.TransferErr {
		h.updateFilter(tx, e)
	}
	e.busy = false
	return res
}

// crossLink broadcasts the consistency check over the inter-bus link
// to every remote segment holding boards in mask, merging their
// reactions. The link is held for the whole broadcast; each remote
// segment is acquired, probed for one check/update window, and
// released before the next, so a segment semaphore is never held while
// waiting on anything but its own queue.
//
//vmplint:hotpath
func (h *Hierarchy) crossLink(p *sim.Process, tx Transaction, mask uint64) Result {
	var res Result
	h.link.Acquire(p)
	pkt := h.timing.ArbAddr + h.timing.FirstWord
	h.linkBusy.Add(int64(pkt))
	h.linkCross.Inc()
	if tx.Requester != NoRequester {
		// The per-board counters are machine-wide, so any segment books
		// the link packet.
		h.segs[0].boardBusy(tx.Requester).Add(int64(pkt))
	}
	// Link-level fault injection reuses the transient-abort class: the
	// broadcast is lost in link arbitration and the requester retries,
	// exactly as for an on-bus spurious abort.
	fl := uint8(obs.FlagConsistency)
	if h.inj != nil && tx.Requester != NoRequester && h.inj.AbortTransient(tx.Op) {
		res.Aborted = true
		res.SpuriousAbort = true
		h.linkAbort.Inc()
		fl |= obs.FlagAborted | obs.FlagSpurious
	}
	if h.sink != nil {
		h.sink.Emit(obs.Event{
			Time: h.eng.Now(), Dur: pkt, PAddr: tx.PAddr, Board: int16(tx.Requester),
			Kind: obs.KindLink, Arg: uint8(tx.Op), Flags: fl,
		})
	}
	p.Delay(pkt)
	if res.Aborted {
		h.link.Release()
		return res
	}
	probe := h.timing.ArbAddr + h.timing.CheckWindow + h.timing.UpdateWindow
	for s, seg := range h.segs {
		if mask&h.segMask(s) == 0 {
			continue
		}
		seg.sem.Acquire(p)
		seg.check(tx, &res)
		seg.charge(tx.Requester, probe)
		seg.emit(tx, probe, Result{})
		p.Delay(probe)
		seg.sem.Release()
	}
	h.link.Release()
	return res
}

// updateFilter maintains the inclusion filter after a successful
// transaction, while the frame is still held busy. The requester's bit
// follows an exact read-back of its monitor's just-updated entry when
// the monitor exposes one (false negatives are thereby impossible:
// every table transition a board makes rides a bus transaction on this
// frame, and the read-back happens before the frame is released).
// Without a read-back the bit is set pessimistically and never
// cleared — a pure false-positive policy.
func (h *Hierarchy) updateFilter(tx Transaction, e *dirEntry) {
	if tx.Requester == NoRequester || tx.Requester >= MaxBoards {
		return
	}
	bit := uint64(1) << uint(tx.Requester)
	if sn, ok := h.boardSnoop[tx.Requester]; ok {
		if ar, ok := sn.(ActionReader); ok {
			if ar.Action(tx.PAddr) != protocol.Ignore {
				e.boards |= bit
			} else {
				e.boards &^= bit
			}
			return
		}
	}
	switch tx.Op {
	case ReadShared, ReadPrivate, AssertOwnership, ReadExclusive:
		e.boards |= bit
	case WriteBack:
		if tx.Downgrade {
			e.boards |= bit
		}
	case WriteActionTable:
		if protocol.Action(tx.Action) != protocol.Ignore {
			e.boards |= bit
		}
	}
}
