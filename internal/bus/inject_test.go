package bus

import (
	"testing"

	"vmp/internal/obs"
	"vmp/internal/sim"
)

// scriptInjector is a scriptable bus.Injector recording what the bus
// consulted it about.
type scriptInjector struct {
	abort, xfer bool
	abortAsked  []Op
	xferAsked   []Op
}

func (s *scriptInjector) AbortTransient(op Op) bool {
	s.abortAsked = append(s.abortAsked, op)
	return s.abort
}
func (s *scriptInjector) TransferError(op Op) bool {
	s.xferAsked = append(s.xferAsked, op)
	return s.xfer
}

// interconnects are the builds the transaction-semantics tests run on:
// the flat bus and a 2-segment hierarchy. On the hierarchy the test's
// requester (board) and its neighbour (board+1) sit on segment 1 while
// DMA issues on segment 0, so the hierarchy's forwarding of injector,
// observer and sink reaches every segment under test. tag is the ASID
// byte the requester's bus events carry.
var interconnects = []struct {
	name  string
	board int
	tag   uint8
	build func(*sim.Engine) Interconnect
}{
	{"bus", 0, 0, func(eng *sim.Engine) Interconnect { return New(eng) }},
	{"hierarchy", 2, 2, func(eng *sim.Engine) Interconnect {
		return NewHierarchy(eng, Topology{Buses: 2, BoardsPerBus: 2}, testPageSize)
	}},
}

func TestInjectedAbortIsSpurious(t *testing.T) {
	for _, ic := range interconnects {
		t.Run(ic.name, func(t *testing.T) {
			eng := sim.NewEngine()
			b := ic.build(eng)
			self := &fakeSnooper{id: ic.board}
			b.Attach(self)
			inj := &scriptInjector{abort: true}
			b.SetInjector(inj)
			var res Result
			var end sim.Time
			eng.Spawn("cpu", func(p *sim.Process) {
				res = b.Do(p, Transaction{Op: ReadPrivate, PAddr: 0, Bytes: 256, Requester: ic.board})
				end = p.Now()
			})
			eng.Run()
			if !res.Aborted || !res.SpuriousAbort {
				t.Fatalf("result %+v, want spurious abort", res)
			}
			// An injected abort looks exactly like a monitor abort: abort
			// occupancy, abort counted, no table update, no bytes moved.
			if end != DefaultTiming().AbortTime() {
				t.Errorf("spuriously aborted tx took %v", end)
			}
			if len(self.updated) != 0 {
				t.Error("action table updated despite injected abort")
			}
			if st := b.Stats(); st.Aborts != 1 || st.BytesMoved != 0 {
				t.Errorf("stats %+v", st)
			}
		})
	}
}

func TestMonitorAbortPreemptsInjection(t *testing.T) {
	for _, ic := range interconnects {
		t.Run(ic.name, func(t *testing.T) {
			eng := sim.NewEngine()
			b := ic.build(eng)
			b.Attach(&fakeSnooper{id: ic.board + 1, abort: true})
			inj := &scriptInjector{abort: true, xfer: true}
			b.SetInjector(inj)
			var res Result
			eng.Spawn("cpu", func(p *sim.Process) {
				res = b.Do(p, Transaction{Op: ReadShared, PAddr: 0, Bytes: 256, Requester: ic.board})
			})
			eng.Run()
			if !res.Aborted || res.SpuriousAbort || res.TransferErr {
				t.Fatalf("result %+v, want genuine abort only", res)
			}
			if len(inj.abortAsked)+len(inj.xferAsked) != 0 {
				t.Error("injector consulted for a transaction a monitor already aborted")
			}
		})
	}
}

func TestInjectedTransferError(t *testing.T) {
	for _, ic := range interconnects {
		t.Run(ic.name, func(t *testing.T) {
			eng := sim.NewEngine()
			b := ic.build(eng)
			self := &fakeSnooper{id: ic.board}
			b.Attach(self)
			inj := &scriptInjector{xfer: true}
			b.SetInjector(inj)
			var res Result
			var end sim.Time
			eng.Spawn("cpu", func(p *sim.Process) {
				res = b.Do(p, Transaction{Op: ReadShared, PAddr: 0, Bytes: 512, Requester: ic.board})
				end = p.Now()
			})
			eng.Run()
			if res.Aborted || !res.TransferErr {
				t.Fatalf("result %+v, want transfer error without abort", res)
			}
			// A failed transfer has no side effects: no table update, no
			// bytes, and it occupies the bus only for the abort window.
			if len(self.updated) != 0 {
				t.Error("action table updated despite transfer error")
			}
			if end != DefaultTiming().AbortTime() {
				t.Errorf("failed transfer took %v", end)
			}
			st := b.Stats()
			if st.BytesMoved != 0 || st.Aborts != 0 {
				t.Errorf("stats %+v", st)
			}
			if v := eng.Recorder().Value("bus/transfer-errors"); v != 1 {
				t.Errorf("bus/transfer-errors = %d, want 1", v)
			}
		})
	}
}

func TestNonTransferOpsNeverGetTransferErrors(t *testing.T) {
	for _, ic := range interconnects {
		t.Run(ic.name, func(t *testing.T) {
			eng := sim.NewEngine()
			b := ic.build(eng)
			inj := &scriptInjector{xfer: true}
			b.SetInjector(inj)
			eng.Spawn("cpu", func(p *sim.Process) {
				// AssertOwnership moves no data; WriteActionTable is not
				// even consistency-related. Neither may be offered to
				// TransferError.
				b.Do(p, Transaction{Op: AssertOwnership, PAddr: 0, Requester: ic.board})
				b.Do(p, Transaction{Op: WriteActionTable, PAddr: 0, Requester: ic.board, Action: 1})
			})
			eng.Run()
			if len(inj.xferAsked) != 0 {
				t.Errorf("TransferError consulted for %v", inj.xferAsked)
			}
		})
	}
}

func TestDMAExemptFromInjection(t *testing.T) {
	for _, ic := range interconnects {
		t.Run(ic.name, func(t *testing.T) {
			eng := sim.NewEngine()
			b := ic.build(eng)
			inj := &scriptInjector{abort: true, xfer: true}
			b.SetInjector(inj)
			var res Result
			eng.Spawn("dma", func(p *sim.Process) {
				res = b.Do(p, Transaction{Op: PlainWrite, PAddr: 0, Bytes: 256, Requester: NoRequester})
			})
			eng.Run()
			if res.Aborted || res.TransferErr {
				t.Fatalf("DMA transfer faulted: %+v", res)
			}
			if len(inj.abortAsked)+len(inj.xferAsked) != 0 {
				t.Error("injector consulted for a DMA transaction")
			}
		})
	}
}

func TestObserverSeesEveryTransaction(t *testing.T) {
	for _, ic := range interconnects {
		t.Run(ic.name, func(t *testing.T) {
			eng := sim.NewEngine()
			b := ic.build(eng)
			self := &fakeSnooper{id: ic.board}
			b.Attach(self)
			sink := obs.NewSink(obs.Config{Stream: true}, eng.Now)
			b.SetSink(sink)
			type observation struct {
				tx  Transaction
				res Result
			}
			var seen []observation
			var updatesAtObserve []int
			b.SetObserver(func(tx Transaction, res Result) {
				seen = append(seen, observation{tx, res})
				updatesAtObserve = append(updatesAtObserve, len(self.updated))
			})
			inj := &scriptInjector{}
			b.SetInjector(inj)
			eng.Spawn("cpu", func(p *sim.Process) {
				b.Do(p, Transaction{Op: ReadShared, PAddr: 0x1000, Bytes: 256, Requester: ic.board})
				inj.abort = true
				b.Do(p, Transaction{Op: ReadPrivate, PAddr: 0x1000, Bytes: 256, Requester: ic.board})
			})
			eng.Run()
			if len(seen) != 2 {
				t.Fatalf("observer called %d times, want 2", len(seen))
			}
			if seen[0].tx.Op != ReadShared || seen[0].res.Aborted {
				t.Errorf("first observation %+v", seen[0])
			}
			if seen[1].tx.Op != ReadPrivate || !seen[1].res.SpuriousAbort {
				t.Errorf("second observation %+v", seen[1])
			}
			// The observer must run after the action-table side effect so
			// shadow tracking sees post-transaction state.
			if updatesAtObserve[0] != 1 {
				t.Errorf("observer ran before UpdateFromOwn (%d updates visible)", updatesAtObserve[0])
			}
			// The sink sees the same two transactions, tagged with the
			// requester's bus.
			evs := sink.Stream()
			if len(evs) != 2 {
				t.Fatalf("sink got %d events, want 2: %v", len(evs), evs)
			}
			for i, e := range evs {
				if e.Kind != obs.KindBus || Op(e.Arg) != seen[i].tx.Op || e.ASID != ic.tag {
					t.Errorf("event %d = %v, want a %v bus event tagged %d", i, e, seen[i].tx.Op, ic.tag)
				}
			}
		})
	}
}
