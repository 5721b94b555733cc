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
// consistency actions. Main memory is multi-ported with a bank port on
// every segment, so data transfers (page fills, write-backs, DMA) run
// entirely on the requester's local bus at the ordinary VMEbus timing —
// monitors and copiers keep their exact single-bus behaviour.
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
	rec      *stats.Recorder
	timing   Timing
	topo     Topology
	pageSize int

	segs []*segment
	link *sim.Semaphore

	inj      Injector
	observer func(Transaction, Result)
	sink     *obs.Sink

	// dir is the inclusion filter plus busy bit, per page frame,
	// created on first touch. Accessed by key only (never iterated), so
	// no map-order dependence can arise.
	dir map[uint32]*dirEntry
	// boardSnoop finds the requester's own monitor for the table
	// update and the filter read-back.
	boardSnoop map[int]Snooper

	tx        [numOps]*stats.Counter
	aborts    *stats.Counter
	xferErrs  *stats.Counter
	busy      *stats.Counter // total segment occupancy, in sim.Time ns
	bytes     *stats.Counter
	linkBusy  *stats.Counter
	linkCross *stats.Counter
	linkAbort *stats.Counter
	filtered  *stats.Counter // consistency transactions kept local by the filter
	waits     *stats.Counter // busy-frame arbitration waits
	perBoard  map[int]*stats.Counter
}

// segment is one local bus: its own arbiter (semaphore), its own
// monitors, its own occupancy counter.
type segment struct {
	sem      *sim.Semaphore
	snoopers []Snooper
	busy     *stats.Counter
	// intrBuf is the scratch list of monitors to post, reused across
	// transactions; it is touched only under the segment semaphore.
	intrBuf []Snooper
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
		rec:        rec,
		timing:     DefaultTiming(),
		topo:       topo,
		pageSize:   pageSize,
		link:       sim.NewSemaphore(1),
		dir:        make(map[uint32]*dirEntry),
		boardSnoop: make(map[int]Snooper),
		aborts:     rec.Counter("bus/aborts"),
		xferErrs:   rec.Counter("bus/transfer-errors"),
		busy:       rec.Counter("bus/busy-ns"),
		bytes:      rec.Counter("bus/bytes-moved"),
		linkBusy:   rec.Counter("bus/link/busy-ns"),
		linkCross:  rec.Counter("bus/link/crossings"),
		linkAbort:  rec.Counter("bus/link/aborts"),
		filtered:   rec.Counter("bus/link/filtered-local"),
		waits:      rec.Counter("bus/frame-waits"),
		perBoard:   make(map[int]*stats.Counter),
	}
	for op := 0; op < numOps; op++ {
		h.tx[op] = rec.Counter("bus/tx/" + Op(op).String())
	}
	for i := 0; i < topo.Buses; i++ {
		h.segs = append(h.segs, &segment{
			sem:  sim.NewSemaphore(1),
			busy: rec.Counter(fmt.Sprintf("bus/seg%d/busy-ns", i)),
		})
	}
	return h
}

// SetInjector implements Interconnect. The same injector serves both
// the per-segment transaction faults and the link-level transient
// aborts, so one seeded fault plan covers the whole interconnect.
func (h *Hierarchy) SetInjector(inj Injector) { h.inj = inj }

// SetSink implements Interconnect.
func (h *Hierarchy) SetSink(s *obs.Sink) { h.sink = s }

// SetObserver implements Interconnect. The observer runs once per
// logical transaction with the merged (local + remote) result, while
// the home segment is still held and the frame is still busy, so the
// watchdog's shadow sees one serialized stream in commit order exactly
// as on a single bus.
func (h *Hierarchy) SetObserver(fn func(Transaction, Result)) { h.observer = fn }

// SetTiming implements Interconnect.
func (h *Hierarchy) SetTiming(t Timing) { h.timing = t }

// Timing implements Interconnect.
func (h *Hierarchy) Timing() Timing { return h.timing }

// Attach implements Interconnect, placing the monitor on its board's
// segment.
func (h *Hierarchy) Attach(s Snooper) {
	seg := h.segs[h.topo.SegmentOf(s.BoardID())]
	seg.snoopers = append(seg.snoopers, s)
	h.boardSnoop[s.BoardID()] = s
}

// Stats implements Interconnect. BusyTime aggregates the occupancy of
// every segment (link time is reported separately via LinkStats).
func (h *Hierarchy) Stats() Stats {
	cp := Stats{
		Aborts:       uint64(h.aborts.Value()),
		BusyTime:     sim.Time(h.busy.Value()),
		BytesMoved:   uint64(h.bytes.Value()),
		Transactions: make(map[Op]uint64),
	}
	for op := 0; op < numOps; op++ {
		if v := h.tx[op].Value(); v > 0 {
			cp.Transactions[Op(op)] = uint64(v)
		}
	}
	return cp
}

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
	return float64(h.segs[i].busy.Value()) / float64(h.eng.Now())
}

// Utilization implements Interconnect: the mean per-segment
// utilization, comparable to the single bus's figure and to the
// queuing model's per-bus prediction.
func (h *Hierarchy) Utilization() float64 {
	if h.eng.Now() == 0 || len(h.segs) == 0 {
		return 0
	}
	return float64(h.busy.Value()) / (float64(h.eng.Now()) * float64(len(h.segs)))
}

// BoardBusyTime implements Interconnect: all interconnect occupancy
// (home segment, remote probes, link packets) charged to a board.
func (h *Hierarchy) BoardBusyTime(id int) sim.Time {
	if c, ok := h.perBoard[id]; ok {
		return sim.Time(c.Value())
	}
	return 0
}

func (h *Hierarchy) boardBusy(id int) *stats.Counter {
	c, ok := h.perBoard[id]
	if !ok {
		c = h.rec.Counter(fmt.Sprintf("bus/board%d/busy-ns", id))
		h.perBoard[id] = c
	}
	return c
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

// charge books occupancy time against a segment and the requester.
//
//vmplint:hotpath
func (h *Hierarchy) charge(seg *segment, requester int, d sim.Time) {
	seg.busy.Add(int64(d))
	h.busy.Add(int64(d))
	if requester != NoRequester {
		h.boardBusy(requester).Add(int64(d))
	}
}

// emit sends one trace event; seg is the 1-based segment tag carried
// in the event's ASID byte (0 is reserved so single-bus streams, which
// always carry 0 there, keep their historical encoding).
//
//vmplint:hotpath
func (h *Hierarchy) emit(kind obs.Kind, tx Transaction, dur sim.Time, seg int, fl uint8) {
	if h.sink == nil {
		return
	}
	h.sink.Emit(obs.Event{
		Time: h.eng.Now(), Dur: dur, PAddr: tx.PAddr,
		Board: int16(tx.Requester), ASID: uint8(seg),
		Kind: kind, Arg: uint8(tx.Op), Flags: fl,
	})
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
		return h.commit(p, tx, home, Result{})
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
	res = h.commit(p, tx, home, res)
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
		h.boardBusy(tx.Requester).Add(int64(pkt))
	}
	// Link-level fault injection reuses the transient-abort class: the
	// broadcast is lost in link arbitration and the requester retries,
	// exactly as for an on-bus spurious abort.
	if h.inj != nil && tx.Requester != NoRequester && h.inj.AbortTransient(tx.Op) {
		res.Aborted = true
		res.SpuriousAbort = true
		h.linkAbort.Inc()
		h.emit(obs.KindLink, tx, pkt, 0, obs.FlagConsistency|obs.FlagAborted|obs.FlagSpurious)
		p.Delay(pkt)
		h.link.Release()
		return res
	}
	h.emit(obs.KindLink, tx, pkt, 0, obs.FlagConsistency)
	p.Delay(pkt)
	probe := h.timing.ArbAddr + h.timing.CheckWindow + h.timing.UpdateWindow
	for s := 0; s < len(h.segs); s++ {
		if mask&h.segMask(s) == 0 {
			continue
		}
		seg := h.segs[s]
		seg.sem.Acquire(p)
		seg.intrBuf = seg.intrBuf[:0]
		for _, sn := range seg.snoopers {
			r := sn.Check(tx)
			if r.Abort {
				res.Aborted = true
			}
			if r.Seen {
				res.SharedSeen = true
			}
			if r.Interrupt {
				seg.intrBuf = append(seg.intrBuf, sn) //vmplint:allow hotalloc reused per-segment scratch reaches snooper-count capacity once; the interconnect/cross-link micro pins 0 allocs/op
			}
		}
		for _, sn := range seg.intrBuf {
			sn.Post(tx)
		}
		h.charge(seg, tx.Requester, probe)
		h.emit(obs.KindBus, tx, probe, 1+s, obs.FlagConsistency)
		p.Delay(probe)
		seg.sem.Release()
	}
	h.link.Release()
	return res
}

// commit runs the transaction on its home segment: the local check
// window, fault injection, transfer timing, the requester's own table
// update, counters, tracing and the observer — the reference Bus.Do
// semantics with the already-gathered remote reactions folded into the
// abort decision.
//
//vmplint:hotpath
func (h *Hierarchy) commit(p *sim.Process, tx Transaction, home int, res Result) Result {
	seg := h.segs[home]
	seg.sem.Acquire(p)
	defer seg.sem.Release()

	if tx.Op.ConsistencyRelated() {
		seg.intrBuf = seg.intrBuf[:0]
		for _, sn := range seg.snoopers {
			r := sn.Check(tx)
			if r.Abort {
				res.Aborted = true
			}
			if r.Seen {
				res.SharedSeen = true
			}
			if r.Interrupt {
				seg.intrBuf = append(seg.intrBuf, sn) //vmplint:allow hotalloc reused per-segment scratch reaches snooper-count capacity once; the interconnect/local-hit micro pins 0 allocs/op
			}
		}
		for _, sn := range seg.intrBuf {
			sn.Post(tx)
		}
	}

	if h.inj != nil && !res.Aborted && tx.Requester != NoRequester {
		if tx.Op.ConsistencyRelated() && h.inj.AbortTransient(tx.Op) {
			res.Aborted = true
			res.SpuriousAbort = true
		} else if tx.Op.Transfers() && tx.Bytes > 0 && h.inj.TransferError(tx.Op) {
			res.TransferErr = true
		}
	}

	var busy sim.Time
	switch {
	case res.Aborted:
		busy = h.timing.AbortTime()
		h.aborts.Inc()
	case res.TransferErr:
		busy = h.timing.AbortTime()
		h.xferErrs.Inc()
	default:
		busy = h.timing.TransferTime(tx.Op, tx.Bytes)
		h.bytes.Add(int64(tx.Bytes))
		if tx.Requester != NoRequester && (tx.Op.ConsistencyRelated() || tx.Op == WriteActionTable) {
			if sn, ok := h.boardSnoop[tx.Requester]; ok {
				sn.UpdateFromOwn(tx, res)
			}
		}
	}
	h.tx[tx.Op].Inc()
	h.charge(seg, tx.Requester, busy)
	var fl uint8
	if tx.Op.ConsistencyRelated() {
		fl |= obs.FlagConsistency
	}
	if res.Aborted {
		fl |= obs.FlagAborted
	}
	if res.SpuriousAbort {
		fl |= obs.FlagSpurious
	}
	if res.TransferErr {
		fl |= obs.FlagTransferErr
	}
	h.emit(obs.KindBus, tx, busy, 1+home, fl)
	if h.observer != nil {
		h.observer(tx, res)
	}
	p.Delay(busy)
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
