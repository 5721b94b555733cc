package core

import (
	"fmt"
	"sort"

	"vmp/internal/bus"
	"vmp/internal/cache"
	"vmp/internal/copier"
	"vmp/internal/monitor"
	"vmp/internal/obs"
	"vmp/internal/protocol"
	"vmp/internal/sim"
	"vmp/internal/stats"
	"vmp/internal/vm"
)

// pageState is the software-maintained state of one physical cache page
// frame, kept in the board's local memory (Section 3.3: "Information
// about the state of each cache page and the mapping from physical
// address to cache page is maintained by the processor in the local
// memory"). It aliases the protocol layer's page-state lattice.
type pageState = protocol.PageState

const (
	psShared  = protocol.StateShared
	psPrivate = protocol.StatePrivate
)

// frameInfo is the local-memory record for one physical frame the cache
// holds: its consistency state and the cache slots holding copies
// (several slots when virtual aliases or multiple ASIDs map the frame).
// A private frame always has exactly one slot.
type frameInfo struct {
	state pageState
	slots []cache.SlotID
}

// BoardStats counts per-board events beyond the cache's own counters.
type BoardStats struct {
	Refs             uint64   // memory references issued by the CPU
	Retries          uint64   // fills/upgrades retried after an abort
	IntrWords        uint64   // FIFO words serviced
	StaleWords       uint64   // words for frames no longer held
	InvalidationsIn  uint64   // pages discarded because another CPU took ownership
	DowngradesIn     uint64   // pages downgraded to shared on a foreign read
	WriteBacks       uint64   // write-back transactions issued
	WriteBackRetries uint64   // write-backs retried after a stale-entry abort
	Recoveries       uint64   // FIFO-overflow recovery sweeps
	PageFaults       uint64   // VM faults taken
	ProtFaults       uint64   // protection faults surfaced
	SynonymFills     uint64   // misses resolved locally from the reverse lookup table (rlt)
	Violations       uint64   // protocol violations observed (should stay 0)
	MissTime         sim.Time // total time spent in the miss handler
	IntrTime         sim.Time // total time spent servicing consistency interrupts
}

// boardCounters is the recorder-backed counter set behind BoardStats.
// All counters live in the run's stats.Recorder under "board<i>/..."
// names, next to the board's cache and monitor counters.
type boardCounters struct {
	refs, retries, intrWords, staleWords     *stats.Counter
	invalidationsIn, downgradesIn            *stats.Counter
	writeBacks, writeBackRetries, recoveries *stats.Counter
	pageFaults, protFaults, violations       *stats.Counter
	synonymFills                             *stats.Counter
	missTimeNs, intrTimeNs                   *stats.Counter
}

func bindBoardCounters(rec *stats.Recorder, prefix string) boardCounters {
	return boardCounters{
		refs:             rec.Counter(prefix + "refs"),
		retries:          rec.Counter(prefix + "retries"),
		intrWords:        rec.Counter(prefix + "intr-words"),
		staleWords:       rec.Counter(prefix + "stale-words"),
		invalidationsIn:  rec.Counter(prefix + "invalidations-in"),
		downgradesIn:     rec.Counter(prefix + "downgrades-in"),
		writeBacks:       rec.Counter(prefix + "write-backs"),
		writeBackRetries: rec.Counter(prefix + "write-back-retries"),
		recoveries:       rec.Counter(prefix + "recoveries"),
		pageFaults:       rec.Counter(prefix + "page-faults"),
		protFaults:       rec.Counter(prefix + "prot-faults"),
		violations:       rec.Counter(prefix + "violations"),
		synonymFills:     rec.Counter(prefix + "synonym-fills"),
		missTimeNs:       rec.Counter(prefix + "miss-time-ns"),
		intrTimeNs:       rec.Counter(prefix + "intr-time-ns"),
	}
}

// Board is one VMP processor board: CPU timing state, virtually
// addressed cache, bus monitor, block copier, and the cache-management
// software's local-memory tables.
type Board struct {
	ID    int
	m     *Machine
	proto protocol.Protocol
	Cache *cache.Cache
	Mon   *monitor.Monitor
	Cop   *copier.Copier

	// Local-memory software tables.
	frames    map[uint32]*frameInfo // cache-page frame -> info
	slotFrame []uint32              // cache slot -> frame it holds

	// intrSig wakes an idle CPU when the monitor posts a word.
	intrSig sim.Signal
	// onNotify, if set, is called from interrupt service for notify
	// words (the kernel's notification hook).
	onNotify func(paddr uint32)

	// readPrivateOnRead, if set, selects the Section 5.4 optimization:
	// read misses to addresses it approves are fetched with
	// read-private, anticipating a private write.
	readPrivateOnRead func(asid uint8, vaddr uint32) bool

	// protected marks frames whose Private action-table entries are
	// deliberate region protection (e.g. during DMA): stale-word
	// handling must not clear them.
	protected map[uint32]bool

	// missHist records the elapsed time of every miss-handler
	// invocation, in microseconds (exponential buckets 1µs..1ms).
	missHist *stats.Histogram

	// sink is the run's observability sink (nil when tracing is off:
	// every emission site below is guarded by one nil check).
	sink *obs.Sink

	ctr boardCounters
}

func newBoard(m *Machine, id int) *Board {
	rec := m.Eng.Recorder()
	prefix := fmt.Sprintf("board%d/", id)
	c := cache.New(m.cfg.Cache)
	c.BindRecorder(rec, prefix+"cache/")
	mon := monitor.New(id, m.Mem.Frames(), m.cfg.Cache.PageSize, m.cfg.FIFODepth, m.proto)
	mon.BindRecorder(rec, prefix+"monitor/")
	b := &Board{
		ID:        id,
		m:         m,
		proto:     m.proto,
		Cache:     c,
		Mon:       mon,
		Cop:       copier.New(m.Eng, m.Bus, id),
		frames:    make(map[uint32]*frameInfo),
		slotFrame: make([]uint32, m.cfg.Cache.Slots()),
		protected: make(map[uint32]bool),
		missHist:  stats.NewHistogram(1, 1024), // µs
		sink:      m.sink,
		ctr:       bindBoardCounters(rec, prefix),
	}
	b.Mon.SetSink(m.sink)
	b.Cop.SetSink(m.sink)
	b.Mon.SetInterruptLine(func() { b.intrSig.Broadcast() })
	m.Bus.Attach(b.Mon)
	return b
}

// Stats returns a copy of the board counters.
func (b *Board) Stats() BoardStats {
	return BoardStats{
		Refs:             uint64(b.ctr.refs.Value()),
		Retries:          uint64(b.ctr.retries.Value()),
		IntrWords:        uint64(b.ctr.intrWords.Value()),
		StaleWords:       uint64(b.ctr.staleWords.Value()),
		InvalidationsIn:  uint64(b.ctr.invalidationsIn.Value()),
		DowngradesIn:     uint64(b.ctr.downgradesIn.Value()),
		WriteBacks:       uint64(b.ctr.writeBacks.Value()),
		WriteBackRetries: uint64(b.ctr.writeBackRetries.Value()),
		Recoveries:       uint64(b.ctr.recoveries.Value()),
		PageFaults:       uint64(b.ctr.pageFaults.Value()),
		ProtFaults:       uint64(b.ctr.protFaults.Value()),
		SynonymFills:     uint64(b.ctr.synonymFills.Value()),
		Violations:       uint64(b.ctr.violations.Value()),
		MissTime:         sim.Time(b.ctr.missTimeNs.Value()),
		IntrTime:         sim.Time(b.ctr.intrTimeNs.Value()),
	}
}

// MissLatency returns the histogram of miss-handler elapsed times in
// microseconds (top-level misses only; nested page-table fills are
// inside their parent's measurement).
func (b *Board) MissLatency() *stats.Histogram { return b.missHist }

// SetNotifyHandler registers the kernel's notification callback,
// invoked from interrupt service with the notifying physical address.
func (b *Board) SetNotifyHandler(fn func(paddr uint32)) { b.onNotify = fn }

// SetReadPrivateOnRead installs the unshared-region hint (Section 5.4).
func (b *Board) SetReadPrivateOnRead(fn func(asid uint8, vaddr uint32) bool) {
	b.readPrivateOnRead = fn
}

func (b *Board) pageSize() int   { return b.m.cfg.Cache.PageSize }
func (b *Board) timing() *Timing { return &b.m.cfg.Timing }

// retryBackoff is the delay before retry number attempt (0-based): the
// re-trap cost plus a small per-board skew, shifted left once per
// consecutive retry up to the policy cap. The skew models each board's
// distinct arbitration position and clock phase; without it, identical
// programs on identical boards can phase-lock into deterministic
// starvation that real hardware's natural skew breaks. The exponential
// growth bounds livelock under injected abort storms while leaving the
// first retry's timing identical to the fixed-delay behaviour.
func (b *Board) retryBackoff(attempt int) sim.Time {
	base := b.timing().Handler.Retry + sim.Time(b.ID)*25*sim.Nanosecond
	if cap := b.m.cfg.Retry.BackoffShiftCap; attempt > cap {
		attempt = cap
	}
	return base << attempt
}

// noteRetry records consecutive retry number n (1-based) of one
// operation against the starvation watchdog: crossing the threshold
// counts one starvation event, and reaching the hard limit is treated
// as a livelock and panics rather than spinning forever.
func (b *Board) noteRetry(n int) {
	pol := b.m.cfg.Retry
	if n == pol.StarveThreshold {
		b.m.starve.Inc()
	}
	if n >= pol.HardLimit {
		// Leave the last events on record before dying: a livelock's cause
		// is in the transactions just before the limit, not the panic text.
		b.sink.AutoDump(fmt.Sprintf("livelock: board %d reached the %d-retry hard limit", b.ID, n))
		panic(fmt.Sprintf("core: board %d livelocked after %d consecutive retries", b.ID, n))
	}
}

// emitPhase records one miss-handler phase span in the observability
// sink. Callers must guard with `b.sink != nil` (the nil-sink
// discipline: one predictable branch per event site).
func (b *Board) emitPhase(ph obs.Phase, start, dur sim.Time, asid uint8, paddr uint32, flags uint8) {
	//vmplint:allow nilsink documented contract: every caller guards with `b.sink != nil`, keeping one branch per emission site
	b.sink.Emit(obs.Event{
		Time: start, Dur: dur, PAddr: paddr, Board: int16(b.ID),
		ASID: asid, Kind: obs.KindPhase, Arg: uint8(ph), Flags: flags,
	})
}

func (b *Board) frameOf(paddr uint32) uint32 {
	return paddr / uint32(b.pageSize())
}
func (b *Board) frameAddr(frame uint32) uint32 {
	return frame * uint32(b.pageSize())
}

// Access performs one memory reference through the cache, handling
// misses, ownership negotiation, aborts and retries. It returns a
// protection fault as an error; residence faults are served internally.
// The reference's CPU execution time is charged by the caller; Access
// charges only miss-handling time.
func (b *Board) Access(p *sim.Process, asid uint8, vaddr uint32, acc cache.Access) error {
	b.ctr.refs.Inc()
	// Bus-monitor interrupts are serviced between instructions.
	b.ServiceInterrupts(p)
	return b.resolve(p, asid, vaddr, acc, 0)
}

// resolve is the one lookup/retry loop: look the reference up, run the
// miss or upgrade handler until it hits, and count consecutive aborts
// against the starvation watchdog. depth is the page-table recursion
// depth: 0 for a CPU reference, 1 for the table walk's own page-table
// reference (see translate).
func (b *Board) resolve(p *sim.Process, asid uint8, vaddr uint32, acc cache.Access, depth int) error {
	if depth > 2 {
		panic("core: page-table miss recursion too deep")
	}
	attempt := 0
	for {
		var retried bool
		switch _, res := b.Cache.Lookup(asid, vaddr, acc); res {
		case cache.Hit:
			return nil
		case cache.Miss:
			var err error
			if retried, err = b.missFill(p, asid, vaddr, acc, depth, attempt); err != nil {
				return err
			}
		case cache.WriteMiss:
			retried = b.upgradeOwnership(p, asid, vaddr, attempt)
		case cache.ProtFault:
			b.ctr.protFaults.Inc()
			return fmt.Errorf("core: protection fault board=%d asid=%d vaddr=%#x", b.ID, asid, vaddr)
		}
		if retried {
			attempt++
			b.noteRetry(attempt)
		}
	}
}

// Resident reports whether (asid, vaddr) currently hits in the cache
// without disturbing LRU or stats — a test/debug helper.
func (b *Board) Resident(asid uint8, vaddr uint32) bool {
	_, ok := b.Cache.FindVirtual(asid, vaddr)
	return ok
}

// PAddrOf returns the physical address backing a resident virtual
// address (used by the data-access layer: the slot's frame plus offset).
func (b *Board) PAddrOf(asid uint8, vaddr uint32) (uint32, bool) {
	slot, ok := b.Cache.FindVirtual(asid, vaddr)
	if !ok {
		return 0, false
	}
	return b.frameAddr(b.slotFrame[slot]) + vaddr%uint32(b.pageSize()), true
}

// missFill is the software cache-miss handler (Section 2): trap,
// translate, pick a victim and write it back if needed, program the
// block copier, update the local tables, return from the exception.
// VMP caches its own page tables, so the table walk's page-table
// reference can miss as well and runs this same handler at depth 1.
// Every difference from a top-level miss (depth 0) is a `top` test
// below: the page-table fill always reads shared (page-table pages are
// shared metadata under every protocol; vmp3's plain read fill would be
// read-exclusive), the read-private hint is not consulted, a bus fill
// sets no VM referenced/modified mark, and only the one nested miss
// span is traced, with no latency sample (its time is inside the
// parent's). An ownership conflict aborts the fill; the instruction
// re-traps and the handler runs again, after servicing the interrupt
// words that tell this board what to release. attempt is the caller's
// consecutive-retry count for this reference (it scales the backoff);
// the retried result reports whether this invocation ended in an abort.
func (b *Board) missFill(p *sim.Process, asid uint8, vaddr uint32, acc cache.Access, depth, attempt int) (retried bool, err error) {
	t := b.timing()
	top := depth == 0
	// The phase decomposition is traced for top-level misses only.
	phases := top && b.sink != nil
	start := p.Now()
	defer func() {
		d := p.Now() - start
		b.ctr.missTimeNs.Add(int64(d))
		var fl uint8
		if top {
			b.missHist.Add(d.Micros())
		} else {
			fl = obs.FlagNested
		}
		if b.sink != nil {
			if retried {
				fl |= obs.FlagAborted
			}
			b.emitPhase(obs.PhaseMiss, start, d, asid, 0, fl)
		}
	}()

	p.Delay(t.Handler.TrapEntry)
	if phases {
		b.emitPhase(obs.PhaseTrap, start, t.Handler.TrapEntry, asid, 0, 0)
	}

	// Translate first (the table walk may recursively miss and fill the
	// page-table's own cache page, so the victim is chosen after).
	ts := p.Now()
	walk, err := b.translate(p, asid, vaddr, acc, depth)
	if err != nil {
		return false, err
	}
	frame := b.frameOf(walk.PAddr)
	pageAddr := b.frameAddr(frame)
	if phases {
		b.emitPhase(obs.PhaseTranslate, ts, p.Now()-ts, asid, pageAddr, 0)
	}

	// Victim selection and eviction.
	ts = p.Now()
	p.Delay(t.Handler.VictimSelect)
	victim := b.Cache.SuggestVictim(vaddr)
	b.evict(p, victim)
	if phases {
		b.emitPhase(obs.PhaseVictim, ts, p.Now()-ts, asid, pageAddr, 0)
	}

	// A reverse-lookup-table protocol first checks whether the frame is
	// already cached under another virtual name and, if so, attaches
	// the new name locally — no bus transaction, no self-competition.
	wantPrivate := acc.Write || (top && b.readPrivateOnRead != nil && b.readPrivateOnRead(asid, vaddr))
	if b.proto.LocalSynonyms() && b.attachSynonym(p, victim, asid, vaddr, acc, frame, walk.PTE) {
		p.Delay(t.Handler.Epilogue)
		if phases {
			b.emitPhase(obs.PhaseEpilogue, p.Now()-t.Handler.Epilogue, t.Handler.Epilogue, asid, pageAddr, 0)
		}
		return false, nil
	}

	// Resolve our own aliases for the target frame before going to the
	// bus, from local-memory state (see the monitor package comment).
	op := bus.ReadShared
	if top {
		op = b.proto.FillOp(wantPrivate)
	}
	b.resolveOwnAliases(p, frame, wantPrivate)

	// Program the block copier; bookkeeping overlaps the transfer.
	ts = p.Now()
	b.Cop.Start(bus.Transaction{Op: op, PAddr: pageAddr, Bytes: b.pageSize()})
	p.Delay(t.Handler.BookkeepRead)
	res := b.Cop.Wait(p)
	if phases {
		var fl uint8
		if res.Aborted {
			fl = obs.FlagAborted
		}
		b.emitPhase(obs.PhaseCopy, ts, p.Now()-ts, asid, pageAddr, fl)
	}
	if res.Aborted {
		// Ownership conflict: the owner was interrupted and will
		// release the page. Re-trap, service our own interrupts (we may
		// be the owner under an alias, or hold a stale entry), retry.
		b.ctr.retries.Inc()
		ts = p.Now()
		p.Delay(b.retryBackoff(attempt))
		b.resolveOwnConflict(p, frame)
		b.ServiceInterrupts(p)
		if phases {
			b.emitPhase(obs.PhaseRetry, ts, p.Now()-ts, asid, pageAddr, 0)
		}
		return true, nil // resolve re-looks-up and re-traps
	}

	// Fill the slot and update the local tables with the granted state
	// (for an exclusive-clean read, the shared line decides it; a
	// read-shared fill is shared under every protocol).
	st := b.proto.FillState(op, res.SharedSeen)
	flags := b.fillFlags(walk.PTE, st, acc)
	b.Cache.Fill(victim, asid, vaddr, flags)
	b.slotFrame[victim] = frame
	fi := b.frames[frame]
	if fi == nil {
		fi = &frameInfo{}
		b.frames[frame] = fi
	}
	fi.slots = append(fi.slots, victim)
	fi.state = st
	b.m.checker.acquired(b.ID, frame, fi.state)
	if top {
		if acc.Write {
			b.m.VM.SetModified(asid, vaddr)
		} else {
			b.m.VM.SetReferenced(asid, vaddr)
		}
	}

	p.Delay(t.Handler.Epilogue)
	if phases {
		b.emitPhase(obs.PhaseEpilogue, p.Now()-t.Handler.Epilogue, t.Handler.Epilogue, asid, pageAddr, 0)
	}
	return false, nil
}

// fillFlags derives the cache slot flags from the PTE and the granted
// page state.
func (b *Board) fillFlags(pte vm.PTE, st pageState, acc cache.Access) cache.Flags {
	var f cache.Flags
	if !pte.Has(vm.Supervisor) {
		f |= cache.UserRead
		if pte.Has(vm.Writable) {
			f |= cache.UserWrite
		}
	}
	if pte.Has(vm.Writable) {
		f |= cache.SupWrite
	}
	if st == psPrivate {
		f |= cache.Exclusive
	}
	if acc.Write {
		f |= cache.Modified
	}
	return f
}

// attachSynonym is the reverse-lookup-table miss path (protocols with
// LocalSynonyms): if the missed frame is already cached under another
// virtual name, attach the new name to the resident copy from local
// state — no bus transaction. For a frame held shared, the new name
// becomes one more shared slot; for a frame held private, the copy
// *moves* to the new name (the RLT scheme invalidates the old synonym
// location and re-installs the line at the new index, preserving the
// dirty data), keeping the one-slot-per-private-frame invariant. The
// probe and page-map update are local-memory work, charged at the
// handler's bookkeeping cost. Reports whether the miss was resolved.
func (b *Board) attachSynonym(p *sim.Process, victim cache.SlotID, asid uint8, vaddr uint32, acc cache.Access, frame uint32, pte vm.PTE) bool {
	fi := b.frames[frame]
	if fi == nil {
		return false
	}
	p.Delay(b.timing().Handler.BookkeepRead)
	b.ctr.synonymFills.Inc()

	if fi.state == psPrivate {
		old := fi.slots[0]
		flags := b.fillFlags(pte, psPrivate, acc)
		if b.Cache.SlotState(old).Flags.Has(cache.Modified) {
			flags |= cache.Modified
		}
		b.Cache.Invalidate(old)
		b.Cache.Fill(victim, asid, vaddr, flags)
		b.slotFrame[victim] = frame
		fi.slots[0] = victim
	} else {
		// Shared: attach one more read copy. A write access re-trips as
		// a write miss and upgrades ownership over the bus as usual.
		rd := acc
		rd.Write = false
		b.Cache.Fill(victim, asid, vaddr, b.fillFlags(pte, psShared, rd))
		b.slotFrame[victim] = frame
		fi.slots = append(fi.slots, victim)
	}
	if acc.Write && fi.state == psPrivate {
		b.m.VM.SetModified(asid, vaddr)
	} else {
		b.m.VM.SetReferenced(asid, vaddr)
	}
	return true
}

// translate performs the software table walk, charging handler time and
// routing the L2 page-table-entry access through the cache: a top-level
// walk resolves it at depth+1, where it can miss into missFill once
// (PT-space entries translate from local memory, so the recursion stops
// there). Faults are served by the operating system's demand-zero
// handler.
func (b *Board) translate(p *sim.Process, asid uint8, vaddr uint32, acc cache.Access, depth int) (vm.Walk, error) {
	t := b.timing()
	p.Delay(t.Handler.Translate)
	for {
		walk, err := b.m.VM.Translate(asid, vaddr, acc.Write, acc.Super)
		if err == nil {
			// Touch the L2 entry through the cache: the implicit cached
			// copy of the translation. PT-space entries (L2VAddr == 0)
			// come from local memory and cost nothing extra.
			if walk.L2VAddr != 0 && depth == 0 {
				if err := b.resolve(p, asid, walk.L2VAddr, cache.Access{Super: true}, depth+1); err != nil {
					return vm.Walk{}, err
				}
			}
			return walk, nil
		}
		f, ok := err.(*vm.Fault)
		if !ok {
			return vm.Walk{}, err
		}
		if f.Prot {
			return vm.Walk{}, err
		}
		// Demand-zero page fault (operating-system service).
		b.ctr.pageFaults.Inc()
		p.Delay(t.PageFault)
		res, ferr := b.m.VM.HandleFault(asid, vaddr, acc.Write, acc.Super, b.m.cfg.Policy)
		if ferr != nil {
			return vm.Walk{}, ferr
		}
		for _, rp := range res.Reclaimed {
			b.flushVMPage(p, rp.Frame)
		}
	}
}

// evict clears the suggested victim slot, writing its page back if it
// holds the only (modified, private) copy. The BookkeepWB phase runs
// unconditionally — it is the page-map update work — and overlaps the
// write-back transfer when there is one.
func (b *Board) evict(p *sim.Process, victim cache.SlotID) {
	st := b.Cache.SlotState(victim)
	if !st.Flags.Has(cache.Valid) {
		p.Delay(b.timing().Handler.BookkeepWB)
		return
	}
	frame := b.slotFrame[victim]
	fi := b.frames[frame]
	if fi == nil {
		panic("core: valid slot without frame record")
	}

	if fi.state == psPrivate && st.Flags.Has(cache.Modified) {
		// Dirty private page: write back; the entry goes to 00 as a
		// side effect. Bookkeeping overlaps the transfer. A write-back
		// can be spuriously aborted by another board's *stale* Shared
		// entry (left by its own lazy clean eviction); the abort posts
		// that board a violation word, it clears the entry, and our
		// retry goes through.
		b.ctr.writeBacks.Inc()
		ts := p.Now()
		b.Cop.Start(bus.Transaction{Op: bus.WriteBack, PAddr: b.frameAddr(frame), Bytes: b.pageSize()})
		p.Delay(b.timing().Handler.BookkeepWB)
		res := b.Cop.Wait(p)
		wbRetried := res.Aborted
		for attempt := 0; res.Aborted; attempt++ {
			b.ctr.writeBackRetries.Inc()
			b.noteRetry(attempt + 1)
			p.Delay(b.retryBackoff(attempt))
			res = b.Cop.Run(p, bus.Transaction{Op: bus.WriteBack, PAddr: b.frameAddr(frame), Bytes: b.pageSize()})
		}
		if b.sink != nil {
			var fl uint8
			if wbRetried {
				fl = obs.FlagAborted
			}
			b.emitPhase(obs.PhaseWriteBack, ts, p.Now()-ts, 0, b.frameAddr(frame), fl)
		}
		b.m.checker.released(b.ID, frame)
	} else {
		// Clean page (shared, or private-but-unmodified): drop the copy
		// silently. The action-table entry is left stale — clearing it
		// would cost a write-action-table bus transaction per eviction —
		// and the interrupt-service path handles the resulting stale
		// words idempotently (see handleWord).
		p.Delay(b.timing().Handler.BookkeepWB)
		if fi.state == psPrivate {
			b.m.checker.released(b.ID, frame)
		}
	}

	b.detachSlot(frame, fi, victim)
	b.Cache.Invalidate(victim)
}

// detachSlot removes a slot from a frame record, deleting the record
// when no copies remain.
func (b *Board) detachSlot(frame uint32, fi *frameInfo, slot cache.SlotID) {
	for i, s := range fi.slots {
		if s == slot {
			fi.slots = append(fi.slots[:i], fi.slots[i+1:]...)
			break
		}
	}
	if len(fi.slots) == 0 {
		delete(b.frames, frame)
		if fi.state == psShared {
			b.m.checker.released(b.ID, frame)
		}
	}
}

// dropCopies invalidates every cache slot holding frame, in slot-list
// order, detaching each from the frame record (which detachSlot deletes
// once it is empty).
func (b *Board) dropCopies(frame uint32, fi *frameInfo) {
	for len(fi.slots) > 0 {
		s := fi.slots[0]
		b.Cache.Invalidate(s)
		b.detachSlot(frame, fi, s)
	}
}

// clearEntry sets this board's action-table entry for the cache page at
// paddr back to Ignore with a write-action-table transaction.
func (b *Board) clearEntry(p *sim.Process, paddr uint32) {
	b.m.Bus.Do(p, bus.Transaction{
		Op: bus.WriteActionTable, PAddr: paddr, Requester: b.ID, Action: uint8(monitor.Ignore),
	})
}

// upgradeOwnership serves a write to a page held shared: the
// assert-ownership negotiation of Section 3.1. On abort (an owner
// appeared), the instruction re-traps after interrupt service; the
// retried result reports that outcome so the caller can scale the next
// backoff.
func (b *Board) upgradeOwnership(p *sim.Process, asid uint8, vaddr uint32, attempt int) (retried bool) {
	t := b.timing()
	start := p.Now()
	var upPA uint32
	defer func() {
		b.ctr.missTimeNs.Add(int64(p.Now() - start))
		if b.sink != nil {
			var fl uint8
			if retried {
				fl = obs.FlagAborted
			}
			b.emitPhase(obs.PhaseUpgrade, start, p.Now()-start, asid, upPA, fl)
		}
	}()

	p.Delay(t.Handler.TrapEntry)
	slot, ok := b.Cache.FindVirtual(asid, vaddr)
	if !ok {
		// The copy vanished between lookup and handler (interrupt
		// service in a nested path); re-trap as a plain miss.
		p.Delay(t.Handler.Epilogue)
		return false
	}
	frame := b.slotFrame[slot]
	fi := b.frames[frame]
	upPA = b.frameAddr(frame)

	res := b.m.Bus.Do(p, bus.Transaction{
		Op: b.proto.UpgradeOp(), PAddr: b.frameAddr(frame), Requester: b.ID,
	})
	if res.Aborted {
		b.ctr.retries.Inc()
		p.Delay(b.retryBackoff(attempt))
		b.ServiceInterrupts(p)
		p.Delay(t.Handler.Epilogue)
		return true
	}

	// Ownership acquired: all other caches discard their copies in
	// parallel. Keep exactly this slot; drop our own aliases.
	for _, s := range append([]cache.SlotID(nil), fi.slots...) {
		if s != slot {
			b.Cache.Invalidate(s)
			b.detachSlot(frame, fi, s)
		}
	}
	fi.state = psPrivate
	st := b.Cache.SlotState(slot)
	b.Cache.SetFlags(slot, st.Flags|cache.Exclusive)
	b.m.checker.upgraded(b.ID, frame)
	b.m.VM.SetModified(asid, vaddr)
	p.Delay(t.Handler.Epilogue)
	return false
}

// resolveOwnAliases prepares the local cache for acquiring frame:
// when taking the frame private, our own shared alias copies must go;
// when we already own it privately under another virtual address, the
// own monitor would abort our fill, so release first (the paper's
// "competing against itself", resolved from local-memory state).
func (b *Board) resolveOwnAliases(p *sim.Process, frame uint32, wantPrivate bool) {
	fi := b.frames[frame]
	if fi == nil {
		return
	}
	if fi.state == psPrivate {
		// Downgrade or release our private alias copy before the bus
		// sees our request.
		b.releaseOwnership(p, frame, fi, !wantPrivate)
		return
	}
	if wantPrivate {
		// Drop our shared alias copies; the fill will bring the page
		// back private under the new virtual address.
		b.dropCopies(frame, fi)
	}
}

// resolveOwnConflict runs after one of our fills was aborted: if our
// own monitor entry is the stale cause (we no longer hold the frame),
// clear it so the retry can proceed.
func (b *Board) resolveOwnConflict(p *sim.Process, frame uint32) {
	paddr := b.frameAddr(frame)
	if b.frames[frame] == nil && b.Mon.Action(paddr) != monitor.Ignore && b.Mon.Action(paddr) != monitor.Notify {
		b.clearEntry(p, paddr)
	}
}

// releaseOwnership gives up a privately held frame: write it back if
// dirty (with the downgrade variant when a shared copy is kept), or fix
// the action table directly when clean.
func (b *Board) releaseOwnership(p *sim.Process, frame uint32, fi *frameInfo, keepShared bool) {
	if len(fi.slots) != 1 {
		panic(fmt.Sprintf("core: private frame %d with %d slots", frame, len(fi.slots)))
	}
	slot := fi.slots[0]
	st := b.Cache.SlotState(slot)
	paddr := b.frameAddr(frame)

	if st.Flags.Has(cache.Modified) {
		b.ctr.writeBacks.Inc()
		ts := p.Now()
		wbRetried := false
		tx := bus.Transaction{
			Op: bus.WriteBack, PAddr: paddr, Bytes: b.pageSize(), Downgrade: keepShared,
		}
		for attempt := 0; b.Cop.Run(p, tx).Aborted; attempt++ {
			// Spurious abort from a stale foreign Shared entry; that
			// board clears it on the violation word and we retry.
			wbRetried = true
			b.ctr.writeBackRetries.Inc()
			b.noteRetry(attempt + 1)
			p.Delay(b.retryBackoff(attempt))
		}
		if b.sink != nil {
			var fl uint8
			if wbRetried {
				fl = obs.FlagAborted
			}
			b.emitPhase(obs.PhaseWriteBack, ts, p.Now()-ts, 0, paddr, fl)
		}
	} else {
		// Clean: no data to move, but the action-table entry must leave
		// the Private state.
		next := monitor.Ignore
		if keepShared {
			next = monitor.Shared
		}
		b.m.Bus.Do(p, bus.Transaction{
			Op: bus.WriteActionTable, PAddr: paddr, Requester: b.ID, Action: uint8(next),
		})
	}

	if keepShared {
		b.Cache.Downgrade(slot)
		fi.state = psShared
		b.ctr.downgradesIn.Inc()
		b.m.checker.downgraded(b.ID, frame)
	} else {
		b.Cache.Invalidate(slot)
		b.detachSlot(frame, fi, slot)
		b.ctr.invalidationsIn.Inc()
		b.m.checker.released(b.ID, frame)
	}
}

// flushVMPage forces the VM page in physical frame vf out of every
// cache: assert-ownership on each of its cache pages (Section 3.4),
// then clear our own resulting table entries. The page-out daemon's
// reclaimed pages, remaps and address-space teardown all end here.
func (b *Board) flushVMPage(p *sim.Process, vf uint32) {
	base := vf * uint32(vm.PageSize)
	for off := 0; off < vm.PageSize; off += b.pageSize() {
		b.assertFlush(p, base+uint32(off))
	}
}

// assertFlush forces every cached copy of the page at paddr out of all
// caches (including our own) and leaves our action table clean.
func (b *Board) assertFlush(p *sim.Process, paddr uint32) {
	b.assertFlushKeep(p, paddr)
	// The assert left our entry Private; we do not actually hold the
	// page, so clear it.
	b.clearEntry(p, paddr)
}

// ProtectRegion forces every cached copy of the physical region out of
// all caches (assert-ownership per cache page, whose side effect leaves
// this board's action-table entries at Private) and marks the frames so
// any consistency-related transaction on them keeps being aborted —
// the Section 3.3 sequence that guards a DMA target area.
func (b *Board) ProtectRegion(p *sim.Process, paddr uint32, bytes int) {
	for off := 0; off < bytes; off += b.pageSize() {
		pa := paddr + uint32(off)
		b.assertFlushKeep(p, pa)
		b.protected[b.frameOf(pa)] = true
	}
}

// UnprotectRegion clears the protection after the DMA completes.
func (b *Board) UnprotectRegion(p *sim.Process, paddr uint32, bytes int) {
	for off := 0; off < bytes; off += b.pageSize() {
		pa := paddr + uint32(off)
		delete(b.protected, b.frameOf(pa))
		b.clearEntry(p, pa)
	}
}

// assertFlushKeep is assertFlush without the trailing table clear: the
// entry is deliberately left at Private.
func (b *Board) assertFlushKeep(p *sim.Process, paddr uint32) {
	frame := b.frameOf(paddr)
	if fi := b.frames[frame]; fi != nil {
		if fi.state == psPrivate {
			b.releaseOwnership(p, frame, fi, false)
		} else {
			b.dropCopies(frame, fi)
		}
	}
	for attempt := 0; ; attempt++ {
		res := b.m.Bus.Do(p, bus.Transaction{
			Op: bus.AssertOwnership, PAddr: paddr, Requester: b.ID,
		})
		if !res.Aborted {
			return
		}
		b.ctr.retries.Inc()
		b.noteRetry(attempt + 1)
		p.Delay(b.retryBackoff(attempt))
		// Our own stale Private entry can be the abort cause (a clean
		// private eviction leaves it behind, and no interrupt word is
		// posted to self); clear it like the miss path does.
		b.resolveOwnConflict(p, frame)
		b.ServiceInterrupts(p)
	}
}

// ServiceInterrupts drains the bus-monitor FIFO, performing the
// consistency actions of Section 3.3, and runs the overflow recovery
// sweep if a word was dropped. It is called between instructions and at
// retry points.
//
// Queued words are always serviced *before* the recovery sweep, and the
// queue is never discarded: a queued word may be an ownership request
// for a page this board holds privately, and releasing those pages is
// what lets the aborted requesters make progress. (Draining first can
// livelock a tiny FIFO under heavy contention: the requests are thrown
// away, their retries re-fill the FIFO during the sweep's own bus
// activity, and the cycle repeats.) Lost words are covered by the
// conservative shared-page sweep plus the requesters' retries.
func (b *Board) ServiceInterrupts(p *sim.Process) {
	for {
		for {
			w, ok := b.Mon.Pop()
			if !ok {
				break
			}
			b.ctr.intrWords.Inc()
			start := p.Now()
			p.Delay(b.timing().Handler.Interrupt)
			b.handleWord(p, w)
			b.ctr.intrTimeNs.Add(int64(p.Now() - start))
			if b.sink != nil {
				b.emitPhase(obs.PhaseIntrSvc, start, p.Now()-start, 0, w.PAddr, 0)
			}
		}
		if !b.Mon.Dropped() {
			return
		}
		b.recoverOverflow(p)
	}
}

// handleWord performs the consistency action for one FIFO word,
// classified by the protocol's word table. It is written to be
// idempotent and state-based, so stale words (for pages already
// evicted or released) are safe.
func (b *Board) handleWord(p *sim.Process, w monitor.Word) {
	if b.proto.WordClass(w.Op) == protocol.WordNotify {
		if b.onNotify != nil {
			b.onNotify(w.PAddr)
		}
		return
	}
	frame := b.frameOf(w.PAddr)
	if b.protected[frame] {
		// Deliberate region protection (Section 3.3's DMA support):
		// keep aborting until the region is unprotected.
		return
	}
	fi := b.frames[frame]
	if fi == nil {
		// Stale word: we no longer hold the frame but our table entry
		// still reacts. Clear it so requesters stop tripping over us.
		b.ctr.staleWords.Inc()
		act := b.Mon.Action(w.PAddr)
		if act == monitor.Shared || act == monitor.Private {
			b.clearEntry(p, w.PAddr)
		}
		return
	}

	switch b.proto.WordClass(w.Op) {
	case protocol.WordDowngrade:
		// Someone wants a shared copy of a page we own: downgrade.
		if fi.state == psPrivate {
			b.releaseOwnership(p, frame, fi, true)
		}
	case protocol.WordRelease:
		if fi.state == psPrivate {
			b.releaseOwnership(p, frame, fi, false)
		} else {
			// Shared copy: discard it and clear the entry (Section 3.3:
			// "the processor invalidates the cache slots holding this
			// cache page and sets the k-th action table entry to 00").
			b.dropCopies(frame, fi)
			b.ctr.invalidationsIn.Inc()
			b.clearEntry(p, w.PAddr)
		}
	case protocol.WordWriteBack:
		// A write-back means someone else owns the frame. If we hold a
		// shared copy, our invalidation word must have been lost (FIFO
		// overflow) before the recovery sweep ran: treat the write-back
		// as the missed invalidation and discard the copy. A write-back
		// against a frame we own privately is impossible without a
		// genuine protocol violation (our Private entry is never lost).
		if fi.state == psShared {
			b.dropCopies(frame, fi)
			b.ctr.invalidationsIn.Inc()
			b.clearEntry(p, w.PAddr)
		} else {
			b.ctr.violations.Inc()
		}
	}
}

// recoverOverflow is the FIFO-overflow recovery path: conservatively
// invalidate every shared page (their consistency can no longer be
// trusted — an invalidation word may have been lost) and clear the
// corresponding table entries. Privately held pages are safe: requests
// for them were aborted and will be retried, and any words still queued
// are serviced by the caller after the sweep.
func (b *Board) recoverOverflow(p *sim.Process) {
	b.ctr.recoveries.Inc()
	b.Mon.ClearDropped()

	framesSorted := make([]uint32, 0, len(b.frames))
	for f := range b.frames {
		framesSorted = append(framesSorted, f)
	}
	sort.Slice(framesSorted, func(i, j int) bool { return framesSorted[i] < framesSorted[j] })

	for _, frame := range framesSorted {
		fi := b.frames[frame]
		if fi.state != psShared {
			continue
		}
		p.Delay(b.timing().Handler.RecoveryPerPage)
		b.dropCopies(frame, fi)
		b.clearEntry(p, b.frameAddr(frame))
	}
}

// IdleLoop services interrupts while the CPU has no work, until the
// machine drains. It lets a finished processor keep honouring the
// consistency protocol for pages it still holds.
func (b *Board) IdleLoop(p *sim.Process) {
	for {
		b.ServiceInterrupts(p)
		if b.m.draining {
			return
		}
		b.intrSig.Wait(p)
	}
}
