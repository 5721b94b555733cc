// Package bus models the shared VMEbus: single-master arbitration,
// block-transfer timing, the overlapped consistency-check and
// action-table-update windows of Figure 2, and abort semantics.
//
// The bus carries the six consistency-related transaction types of the
// VMP protocol plus plain (DMA/device) word and block transfers that bus
// monitors ignore. Every attached bus monitor checks each
// consistency-related transaction against its action table during the
// check window; any monitor may abort the transaction, which terminates
// it at the end of the current memory reference and leaves main memory
// unmodified (write-back, the only transaction that writes main memory,
// is never aborted in a correct execution).
package bus

import (
	"fmt"

	"vmp/internal/busop"
	"vmp/internal/obs"
	"vmp/internal/protocol"
	"vmp/internal/sim"
	"vmp/internal/stats"
)

// Op is a bus transaction type. It is an alias for busop.Op, the shared
// leaf vocabulary also used by the observability layer to name trace
// events, so the op-name table exists exactly once.
type Op = busop.Op

// Transaction types, re-exported from busop. The first six are the
// consistency-related operations of Section 3.1; Plain transfers are
// issued by DMA devices and by CPUs touching device registers, and are
// invisible to the consistency machinery.
const (
	ReadShared       = busop.ReadShared       // acquire a shared copy of a cache page
	ReadPrivate      = busop.ReadPrivate      // acquire an exclusive copy of a cache page
	AssertOwnership  = busop.AssertOwnership  // gain ownership without reading the page
	WriteBack        = busop.WriteBack        // write a private page back, releasing it
	Notify           = busop.Notify           // notification to interested processors
	WriteActionTable = busop.WriteActionTable // explicit action-table update
	PlainRead        = busop.PlainRead        // DMA/device read (word or block)
	PlainWrite       = busop.PlainWrite       // DMA/device write (word or block)
	ReadExclusive    = busop.ReadExclusive    // exclusive-clean read (vmp3 protocol)
)

// Ops returns every transaction type in declaration order.
func Ops() []Op { return busop.All() }

// NoRequester marks transactions issued by DMA devices rather than a
// processor board.
const NoRequester = -1

// Transaction is one bus operation.
type Transaction struct {
	Op        Op
	PAddr     uint32 // physical address (page-aligned for page operations)
	Bytes     int    // transfer length; 0 for non-transfer operations
	Requester int    // issuing board ID, or NoRequester for DMA
	// Action carries the 2-bit action-table value for WriteActionTable
	// transactions.
	Action uint8
	// Downgrade marks a WriteBack that retains a shared copy: the
	// requester's action-table entry moves to Shared (01) instead of
	// Ignore (00), the hardware realization of Section 3.3's "downgrades
	// the cache page to read-only and changes the action table entry to
	// 01".
	Downgrade bool
}

// Result reports the outcome of a transaction.
type Result struct {
	Aborted bool
	// SpuriousAbort marks an abort injected by the fault layer rather
	// than signalled by a monitor. The requester retries exactly as for a
	// genuine conflict; the flag exists so the invariant watchdog can
	// tell an injected abort from an abort with no protocol cause.
	SpuriousAbort bool
	// TransferErr marks a block transfer that failed mid-stream (injected
	// transfer error). Like an abort it has no protocol side effects —
	// no action-table update, no bytes counted — but it is reported
	// separately so the copier re-issues the transfer instead of the
	// board re-running the whole miss.
	TransferErr bool
	// SharedSeen reports that some monitor asserted the shared line
	// during the check window (protocol.Reaction.Seen): the page is on
	// record elsewhere, so an exclusive-clean grant (ReadExclusive)
	// must be downgraded to a shared copy. Always false for protocols
	// without a shared line.
	SharedSeen bool
}

// Snooper is the bus-side interface of a bus monitor.
type Snooper interface {
	// BoardID identifies the processor this monitor serves.
	BoardID() int
	// Check inspects a transaction during the consistency-check window
	// and returns the protocol reaction: whether to abort it, whether
	// to interrupt the local processor, and whether to assert the
	// shared line. It must not mutate monitor state.
	Check(tx Transaction) protocol.Reaction
	// Post enqueues an interrupt word for the local processor.
	Post(tx Transaction)
	// UpdateFromOwn applies the action-table side effect of a
	// successful transaction issued by this monitor's own processor,
	// given the transaction's bus result (the shared-line state feeds
	// the granted-state decision).
	UpdateFromOwn(tx Transaction, res Result)
}

// Injector is the fault-injection hook consulted by Do. Both methods
// are called at most once per transaction, under the bus semaphore, so
// a deterministic injector yields a deterministic fault sequence.
type Injector interface {
	// AbortTransient is consulted for consistency-related transactions
	// that no monitor aborted; returning true spuriously aborts the
	// transaction. Implementations must never abort WriteBack.
	AbortTransient(op Op) bool
	// TransferError is consulted for surviving block transfers; returning
	// true fails the transfer with no side effects, forcing a re-issue.
	TransferError(op Op) bool
}

// Timing holds the bus timing constants (Figure 2 and Section 2).
type Timing struct {
	// The json tags pin the wire names scenario canonical JSON has
	// always used (the Go field names), so a rename cannot silently
	// change scenario fingerprints; see vmplint's canonjson rule.
	ArbAddr      sim.Time `json:"ArbAddr"`      // arbitration + address cycle
	FirstWord    sim.Time `json:"FirstWord"`    // first longword of a block transfer
	NextWord     sim.Time `json:"NextWord"`     // subsequent longwords
	CheckWindow  sim.Time `json:"CheckWindow"`  // consistency check interval (overlapped)
	UpdateWindow sim.Time `json:"UpdateWindow"` // action table update interval (overlapped)
}

// DefaultTiming matches the prototype: 40 MB/s block transfer on the
// VMEbus with 150 ns check and update windows.
func DefaultTiming() Timing {
	return Timing{
		ArbAddr:      100 * sim.Nanosecond,
		FirstWord:    300 * sim.Nanosecond,
		NextWord:     100 * sim.Nanosecond,
		CheckWindow:  150 * sim.Nanosecond,
		UpdateWindow: 150 * sim.Nanosecond,
	}
}

// TransferTime returns the bus occupancy of a successful transaction.
// The check and update windows are overlapped with the transfer, so a
// block transaction costs arbitration plus the streaming time; a
// non-transfer transaction costs arbitration plus the two windows.
func (t Timing) TransferTime(op Op, bytes int) sim.Time {
	if op.Transfers() && bytes > 0 {
		words := bytes / 4
		if words < 1 {
			words = 1
		}
		return t.ArbAddr + t.FirstWord + sim.Time(words-1)*t.NextWord
	}
	return t.ArbAddr + t.CheckWindow + t.UpdateWindow
}

// AbortTime returns the bus occupancy of an aborted transaction: it is
// terminated at the end of the memory reference in flight when the
// check window completes.
func (t Timing) AbortTime() sim.Time {
	return t.ArbAddr + t.FirstWord
}

// Stats counts bus activity.
type Stats struct {
	Transactions map[Op]uint64
	Aborts       uint64
	BusyTime     sim.Time
	BytesMoved   uint64
}

// numOps is the number of distinct transaction types.
const numOps = int(busop.NumOps)

// Bus is the shared VMEbus. Create with New. All counters live in the
// engine's per-run stats.Recorder under "bus/..." names, so a run's
// metrics are collected in one sink instead of scattered per component.
// A Bus is also one local segment of a Hierarchy: the recorder hands
// out one cell per name, so segments on the same engine share the
// machine-wide counters.
type Bus struct {
	eng      *sim.Engine
	rec      *stats.Recorder
	timing   Timing
	sem      *sim.Semaphore
	snoopers []Snooper
	inj      Injector
	observer func(Transaction, Result)
	sink     *obs.Sink
	// tag is written into the ASID byte of this bus's trace events: 0
	// on the flat bus, 1+segment on a hierarchy segment.
	tag uint8

	tx       [numOps]*stats.Counter
	aborts   *stats.Counter
	xferErrs *stats.Counter
	busy     *stats.Counter // occupancy, in sim.Time ns
	bytes    *stats.Counter
	// segBusy is a hierarchy segment's own occupancy; nil (discarding
	// updates) on the flat bus.
	segBusy *stats.Counter

	// perBoard accumulates bus occupancy per requester (DMA under
	// NoRequester is not tracked here) under "bus/board<i>/busy-ns".
	perBoard map[int]*stats.Counter

	// intrBuf is the scratch list of monitors that asked to be posted
	// this transaction, reused across transactions (the bus semaphore
	// serializes check windows, so one buffer suffices).
	intrBuf []Snooper
}

// New creates a bus on the given engine with default timing, registering
// its counters in the engine's recorder.
func New(eng *sim.Engine) *Bus {
	rec := eng.Recorder()
	b := &Bus{
		eng:      eng,
		rec:      rec,
		timing:   DefaultTiming(),
		sem:      sim.NewSemaphore(1),
		aborts:   rec.Counter("bus/aborts"),
		xferErrs: rec.Counter("bus/transfer-errors"),
		busy:     rec.Counter("bus/busy-ns"),
		bytes:    rec.Counter("bus/bytes-moved"),
		perBoard: make(map[int]*stats.Counter),
	}
	for op := 0; op < numOps; op++ {
		b.tx[op] = rec.Counter("bus/tx/" + Op(op).String())
	}
	return b
}

// SetInjector attaches a fault injector consulted on every transaction
// (nil detaches).
func (b *Bus) SetInjector(inj Injector) { b.inj = inj }

// SetSink attaches the observability sink; every transaction then emits
// one KindBus event (nil detaches, costing one branch per transaction).
func (b *Bus) SetSink(s *obs.Sink) { b.sink = s }

// SetObserver registers fn to be called after every transaction's
// effects are applied, while the bus is still held. The fault layer uses
// it for post-transaction table corruption and the invariant watchdog
// for shadow-state tracking; observing must not issue bus transactions.
func (b *Bus) SetObserver(fn func(Transaction, Result)) { b.observer = fn }

// SetTiming overrides the timing constants (before simulation starts).
func (b *Bus) SetTiming(t Timing) { b.timing = t }

// Timing returns the timing constants.
func (b *Bus) Timing() Timing { return b.timing }

// Attach registers a bus monitor. All monitors see all transactions.
func (b *Bus) Attach(s Snooper) { b.snoopers = append(b.snoopers, s) }

// Stats returns a copy of the counters. Only transaction types that
// occurred appear in the map.
func (b *Bus) Stats() Stats {
	cp := Stats{
		Aborts:       uint64(b.aborts.Value()),
		BusyTime:     sim.Time(b.busy.Value()),
		BytesMoved:   uint64(b.bytes.Value()),
		Transactions: make(map[Op]uint64),
	}
	for op := 0; op < numOps; op++ {
		if v := b.tx[op].Value(); v > 0 {
			cp.Transactions[Op(op)] = uint64(v)
		}
	}
	return cp
}

// boardBusy returns (creating on first use) the occupancy counter for a
// board.
func (b *Bus) boardBusy(id int) *stats.Counter {
	c, ok := b.perBoard[id]
	if !ok {
		c = b.rec.Counter(fmt.Sprintf("bus/board%d/busy-ns", id))
		b.perBoard[id] = c
	}
	return c
}

// Utilization returns total bus occupancy divided by elapsed simulated
// time.
func (b *Bus) Utilization() float64 {
	if b.eng.Now() == 0 {
		return 0
	}
	return float64(b.busy.Value()) / float64(b.eng.Now())
}

// Do performs one bus transaction on behalf of process p, blocking p
// for the arbitration and transfer time. Monitors are consulted during
// the check window; an abort terminates the transaction early. The
// requester's own monitor action table is updated as a side effect of a
// successful consistency-related transaction.
func (b *Bus) Do(p *sim.Process, tx Transaction) Result { return b.do(p, tx, Result{}) }

// do is the one transaction body, shared by the flat bus and every
// hierarchy segment. res carries reactions already gathered elsewhere
// (a hierarchy's remote segments) and is merged with this bus's own
// check window.
//
//vmplint:hotpath
func (b *Bus) do(p *sim.Process, tx Transaction, res Result) Result {
	b.sem.Acquire(p)
	defer b.sem.Release()

	if tx.Op.ConsistencyRelated() {
		b.check(tx, &res)
	}

	// Fault layer: an otherwise-successful transaction may be spuriously
	// aborted (the requester sees an ordinary conflict and retries) or,
	// for block transfers, fail mid-stream with a transfer error. DMA
	// transactions are exempt: they have no retry path.
	if b.inj != nil && !res.Aborted && tx.Requester != NoRequester {
		if tx.Op.ConsistencyRelated() && b.inj.AbortTransient(tx.Op) {
			res.Aborted = true
			res.SpuriousAbort = true
		} else if tx.Op.Transfers() && tx.Bytes > 0 && b.inj.TransferError(tx.Op) {
			res.TransferErr = true
		}
	}

	var busy sim.Time
	switch {
	case res.Aborted:
		busy = b.timing.AbortTime()
		b.aborts.Inc()
	case res.TransferErr:
		// A failed transfer terminates like an abort — at the end of the
		// memory reference in flight — with no table update and no data
		// moved.
		busy = b.timing.AbortTime()
		b.xferErrs.Inc()
	default:
		busy = b.timing.TransferTime(tx.Op, tx.Bytes)
		b.bytes.Add(int64(tx.Bytes))
		if tx.Requester != NoRequester && (tx.Op.ConsistencyRelated() || tx.Op == WriteActionTable) {
			for _, s := range b.snoopers {
				if s.BoardID() == tx.Requester {
					s.UpdateFromOwn(tx, res)
				}
			}
		}
	}
	b.tx[tx.Op].Inc()
	b.charge(tx.Requester, busy)
	b.emit(tx, busy, res)
	if b.observer != nil {
		b.observer(tx, res)
	}
	p.Delay(busy)
	return res
}

// check runs the consistency-check window on this bus, merging every
// monitor's reaction into res. The monitors decide in parallel from
// table state at the start of the window, so all decisions are
// gathered before any interrupt is posted. The caller holds the bus.
//
//vmplint:hotpath
func (b *Bus) check(tx Transaction, res *Result) {
	b.intrBuf = b.intrBuf[:0]
	for _, s := range b.snoopers {
		r := s.Check(tx)
		if r.Abort {
			res.Aborted = true
		}
		if r.Seen {
			res.SharedSeen = true
		}
		if r.Interrupt {
			b.intrBuf = append(b.intrBuf, s) //vmplint:allow hotalloc reused scratch buffer reaches snooper-count capacity once; the bus/transaction and interconnect micros pin 0 allocs/op
		}
	}
	for _, s := range b.intrBuf {
		s.Post(tx)
	}
}

// charge books occupancy against the bus, its segment counter and the
// requester.
//
//vmplint:hotpath
func (b *Bus) charge(requester int, d sim.Time) {
	b.busy.Add(int64(d))
	b.segBusy.Add(int64(d))
	if requester != NoRequester {
		b.boardBusy(requester).Add(int64(d))
	}
}

// emit sends one KindBus trace event tagged with this bus's segment,
// flagged from the transaction's result.
//
//vmplint:hotpath
func (b *Bus) emit(tx Transaction, dur sim.Time, res Result) {
	if b.sink == nil {
		return
	}
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
	b.sink.Emit(obs.Event{
		Time: b.eng.Now(), Dur: dur, PAddr: tx.PAddr,
		Board: int16(tx.Requester), ASID: b.tag,
		Kind: obs.KindBus, Arg: uint8(tx.Op), Flags: fl,
	})
}
