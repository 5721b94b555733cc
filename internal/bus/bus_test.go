package bus

import (
	"testing"

	"vmp/internal/protocol"
	"vmp/internal/sim"
)

// fakeSnooper is a scriptable bus.Snooper for bus-level tests.
type fakeSnooper struct {
	id        int
	abort     bool
	interrupt bool
	posted    []Transaction
	updated   []Transaction
	checked   []Transaction
}

func (f *fakeSnooper) BoardID() int { return f.id }
func (f *fakeSnooper) Check(tx Transaction) protocol.Reaction {
	f.checked = append(f.checked, tx)
	return protocol.Reaction{Abort: f.abort, Interrupt: f.interrupt}
}
func (f *fakeSnooper) Post(tx Transaction)                      { f.posted = append(f.posted, tx) }
func (f *fakeSnooper) UpdateFromOwn(tx Transaction, res Result) { f.updated = append(f.updated, tx) }

func TestTransferTime(t *testing.T) {
	tm := DefaultTiming()
	cases := []struct {
		op    Op
		bytes int
		want  sim.Time
	}{
		{ReadShared, 128, 100 + 300 + 31*100}, // 3.5 µs: Table 1's 128B bus time
		{ReadShared, 256, 100 + 300 + 63*100}, // 6.7 µs
		{WriteBack, 512, 100 + 300 + 127*100}, // 13.1 µs
		{AssertOwnership, 0, 100 + 150 + 150}, // no transfer
		{Notify, 0, 400},
		{WriteActionTable, 0, 400},
		{PlainRead, 4, 100 + 300},
	}
	for _, c := range cases {
		if got := tm.TransferTime(c.op, c.bytes); got != c.want {
			t.Errorf("TransferTime(%v, %d) = %v, want %v", c.op, c.bytes, got, c.want)
		}
	}
	if got := tm.AbortTime(); got != 400 {
		t.Errorf("AbortTime = %v", got)
	}
}

func TestOpClassification(t *testing.T) {
	for _, op := range []Op{ReadShared, ReadPrivate, AssertOwnership, WriteBack, Notify} {
		if !op.ConsistencyRelated() {
			t.Errorf("%v not consistency-related", op)
		}
	}
	for _, op := range []Op{WriteActionTable, PlainRead, PlainWrite} {
		if op.ConsistencyRelated() {
			t.Errorf("%v consistency-related", op)
		}
	}
	for _, op := range []Op{ReadShared, ReadPrivate, WriteBack, PlainRead, PlainWrite} {
		if !op.Transfers() {
			t.Errorf("%v does not transfer", op)
		}
	}
	for _, op := range []Op{AssertOwnership, Notify, WriteActionTable} {
		if op.Transfers() {
			t.Errorf("%v transfers", op)
		}
	}
}

func TestDoOccupiesBus(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng)
	var end sim.Time
	eng.Spawn("cpu", func(p *sim.Process) {
		res := b.Do(p, Transaction{Op: ReadShared, PAddr: 0, Bytes: 256, Requester: 0})
		if res.Aborted {
			t.Error("unexpected abort")
		}
		end = p.Now()
	})
	eng.Run()
	want := DefaultTiming().TransferTime(ReadShared, 256)
	if end != want {
		t.Errorf("transaction took %v, want %v", end, want)
	}
	st := b.Stats()
	if st.BusyTime != want || st.Transactions[ReadShared] != 1 || st.BytesMoved != 256 {
		t.Errorf("stats %+v", st)
	}
}

func TestBusSerializesRequesters(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng)
	var finish []sim.Time
	for i := 0; i < 3; i++ {
		i := i
		eng.Spawn("cpu", func(p *sim.Process) {
			b.Do(p, Transaction{Op: ReadShared, PAddr: 0, Bytes: 128, Requester: i})
			finish = append(finish, p.Now())
		})
	}
	eng.Run()
	per := DefaultTiming().TransferTime(ReadShared, 128)
	for i, f := range finish {
		want := per * sim.Time(i+1)
		if f != want {
			t.Errorf("requester %d finished at %v, want %v", i, f, want)
		}
	}
	if got := b.Stats().BusyTime; got != 3*per {
		t.Errorf("busy time %v, want %v", got, 3*per)
	}
}

func TestAbortShortensTransaction(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng)
	owner := &fakeSnooper{id: 1, abort: true, interrupt: true}
	b.Attach(owner)
	var end sim.Time
	var res Result
	eng.Spawn("cpu", func(p *sim.Process) {
		res = b.Do(p, Transaction{Op: ReadShared, PAddr: 0x1000, Bytes: 512, Requester: 0})
		end = p.Now()
	})
	eng.Run()
	if !res.Aborted {
		t.Fatal("transaction not aborted")
	}
	if end != DefaultTiming().AbortTime() {
		t.Errorf("aborted tx took %v", end)
	}
	if len(owner.posted) != 1 {
		t.Errorf("owner posted %d words", len(owner.posted))
	}
	st := b.Stats()
	if st.Aborts != 1 || st.BytesMoved != 0 {
		t.Errorf("stats %+v", st)
	}
}

func TestUpdateOnlyOnSuccess(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng)
	self := &fakeSnooper{id: 0}
	aborter := &fakeSnooper{id: 1, abort: true}
	b.Attach(self)
	b.Attach(aborter)
	eng.Spawn("cpu", func(p *sim.Process) {
		b.Do(p, Transaction{Op: ReadPrivate, PAddr: 0, Bytes: 256, Requester: 0})
	})
	eng.Run()
	if len(self.updated) != 0 {
		t.Error("action table updated despite abort")
	}

	aborter.abort = false
	eng2 := sim.NewEngine()
	b2 := New(eng2)
	self2 := &fakeSnooper{id: 0}
	b2.Attach(self2)
	eng2.Spawn("cpu", func(p *sim.Process) {
		b2.Do(p, Transaction{Op: ReadPrivate, PAddr: 0, Bytes: 256, Requester: 0})
	})
	eng2.Run()
	if len(self2.updated) != 1 {
		t.Error("action table not updated on success")
	}
}

func TestPlainOpsSkipMonitors(t *testing.T) {
	for _, ic := range interconnects {
		t.Run(ic.name, func(t *testing.T) {
			eng := sim.NewEngine()
			b := ic.build(eng)
			s := &fakeSnooper{id: ic.board + 1, abort: true, interrupt: true}
			b.Attach(s)
			var res Result
			eng.Spawn("dma", func(p *sim.Process) {
				res = b.Do(p, Transaction{Op: PlainWrite, PAddr: 0, Bytes: 256, Requester: NoRequester})
			})
			eng.Run()
			if res.Aborted {
				t.Error("plain transfer aborted")
			}
			if len(s.checked) != 0 || len(s.posted) != 0 {
				t.Error("monitor saw a plain transfer")
			}
		})
	}
}

func TestWriteActionTableUpdatesOwnMonitor(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng)
	self := &fakeSnooper{id: 0}
	other := &fakeSnooper{id: 1}
	b.Attach(self)
	b.Attach(other)
	eng.Spawn("cpu", func(p *sim.Process) {
		b.Do(p, Transaction{Op: WriteActionTable, PAddr: 0x2000, Requester: 0, Action: 3})
	})
	eng.Run()
	if len(self.updated) != 1 || self.updated[0].Action != 3 {
		t.Errorf("own monitor updates: %+v", self.updated)
	}
	if len(other.updated) != 0 {
		t.Error("foreign monitor updated")
	}
	// Not consistency-related: monitors are not checked.
	if len(self.checked) != 0 || len(other.checked) != 0 {
		t.Error("write-action-table was snooped")
	}
}

func TestUtilizationAndPerBoard(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng)
	eng.Spawn("cpu", func(p *sim.Process) {
		b.Do(p, Transaction{Op: ReadShared, PAddr: 0, Bytes: 128, Requester: 2})
		p.Delay(b.Timing().TransferTime(ReadShared, 128)) // idle as long as busy
	})
	eng.Run()
	if got := b.Utilization(); got != 0.5 {
		t.Errorf("utilization %v, want 0.5", got)
	}
	per := DefaultTiming().TransferTime(ReadShared, 128)
	if got := sim.Time(eng.Recorder().Value("bus/board2/busy-ns")); got != per {
		t.Errorf("board busy %v, want %v", got, per)
	}
	if got := eng.Recorder().Value("bus/board7/busy-ns"); got != 0 {
		t.Errorf("untouched board busy %v", got)
	}
}

func TestOpString(t *testing.T) {
	if ReadShared.String() != "read-shared" || WriteBack.String() != "write-back" {
		t.Error("Op.String")
	}
}
