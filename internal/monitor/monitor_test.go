package monitor

import (
	"testing"
	"testing/quick"

	"vmp/internal/bus"
	"vmp/internal/stats"
)

const (
	frames   = 1024
	pageSize = 256
)

func newMon(board int) *Monitor { return New(board, frames, pageSize, 0, nil) }

func tx(op bus.Op, paddr uint32, req int) bus.Transaction {
	return bus.Transaction{Op: op, PAddr: paddr, Bytes: pageSize, Requester: req}
}

func TestActionTableRoundTrip(t *testing.T) {
	m := newMon(0)
	f := func(frame uint16, a uint8) bool {
		paddr := uint32(frame%frames) * pageSize
		act := Action(a & 3)
		m.SetAction(paddr, act)
		return m.Action(paddr) == act
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestActionTablePackingIndependence(t *testing.T) {
	m := newMon(0)
	// Four frames sharing one table byte must not disturb each other.
	for f := uint32(0); f < 4; f++ {
		m.SetAction(f*pageSize, Action(f%4))
	}
	for f := uint32(0); f < 4; f++ {
		if got := m.Action(f * pageSize); got != Action(f%4) {
			t.Errorf("frame %d action %v, want %v", f, got, Action(f%4))
		}
	}
}

func TestActionDefaultsIgnore(t *testing.T) {
	m := newMon(0)
	if m.Action(0x4000) != Ignore {
		t.Error("fresh table entry not Ignore")
	}
	// Out-of-range addresses read as Ignore rather than crashing.
	if m.Action(0xffffff00) != Ignore {
		t.Error("out-of-range action not Ignore")
	}
}

func TestSetActionOutOfRangePanics(t *testing.T) {
	m := newMon(0)
	defer func() {
		if recover() == nil {
			t.Error("SetAction out of range did not panic")
		}
	}()
	m.SetAction(uint32(frames*pageSize), Shared)
}

func TestCheckIgnore(t *testing.T) {
	m := newMon(0)
	for _, op := range []bus.Op{bus.ReadShared, bus.ReadPrivate, bus.AssertOwnership, bus.WriteBack, bus.Notify} {
		r := m.Check(tx(op, 0x1000, 1))
		if r.Abort || r.Interrupt {
			t.Errorf("Ignore entry reacted to %v", op)
		}
	}
}

func TestCheckShared(t *testing.T) {
	m := newMon(0)
	m.SetAction(0x1000, Shared)

	// read-shared and notify pass silently.
	for _, op := range []bus.Op{bus.ReadShared, bus.Notify} {
		if r := m.Check(tx(op, 0x1000, 1)); r.Abort || r.Interrupt {
			t.Errorf("Shared entry reacted to %v", op)
		}
	}
	// Ownership requests from others interrupt without abort.
	for _, op := range []bus.Op{bus.ReadPrivate, bus.AssertOwnership} {
		r := m.Check(tx(op, 0x1000, 1))
		if r.Abort || !r.Interrupt {
			t.Errorf("Shared entry on %v: abort=%v intr=%v", op, r.Abort, r.Interrupt)
		}
	}
	// A write-back of a page we hold shared is a protocol violation.
	r := m.Check(tx(bus.WriteBack, 0x1000, 1))
	if !r.Abort || !r.Interrupt {
		t.Errorf("Shared entry on write-back: abort=%v intr=%v", r.Abort, r.Interrupt)
	}
}

func TestCheckPrivate(t *testing.T) {
	m := newMon(0)
	m.SetAction(0x2000, Private)
	for _, op := range []bus.Op{bus.ReadShared, bus.ReadPrivate, bus.AssertOwnership, bus.WriteBack} {
		r := m.Check(tx(op, 0x2000, 1))
		if !r.Abort || !r.Interrupt {
			t.Errorf("Private entry on %v from other: abort=%v intr=%v", op, r.Abort, r.Interrupt)
		}
	}
}

func TestCheckPrivateOwnWriteBackReleases(t *testing.T) {
	m := newMon(0)
	m.SetAction(0x2000, Private)
	r := m.Check(tx(bus.WriteBack, 0x2000, 0))
	if r.Abort || r.Interrupt {
		t.Errorf("own write-back was aborted/interrupted: %v %v", r.Abort, r.Interrupt)
	}
}

func TestCheckPrivateOwnAliasAborts(t *testing.T) {
	// The processor competing against itself: its own read-shared of a
	// page it owns (under another virtual address) is aborted but no
	// interrupt word is enqueued for it.
	m := newMon(0)
	m.SetAction(0x2000, Private)
	r := m.Check(tx(bus.ReadShared, 0x2000, 0))
	if !r.Abort {
		t.Error("own read-shared of owned page not aborted")
	}
	if r.Interrupt {
		t.Error("own transaction enqueued an interrupt")
	}
}

func TestCheckNotify(t *testing.T) {
	m := newMon(0)
	m.SetAction(0x3000, Notify)
	r := m.Check(tx(bus.Notify, 0x3000, 1))
	if r.Abort || !r.Interrupt {
		t.Errorf("Notify entry on notify: %v %v", r.Abort, r.Interrupt)
	}
	for _, op := range []bus.Op{bus.ReadShared, bus.ReadPrivate, bus.AssertOwnership, bus.WriteBack} {
		if r := m.Check(tx(op, 0x3000, 1)); r.Abort || r.Interrupt {
			t.Errorf("Notify entry reacted to %v", op)
		}
	}
}

func TestUpdateFromOwn(t *testing.T) {
	m := newMon(0)
	cases := []struct {
		op   bus.Op
		want Action
	}{
		{bus.ReadShared, Shared},
		{bus.ReadPrivate, Private},
		{bus.AssertOwnership, Private},
		{bus.WriteBack, Ignore},
	}
	for _, c := range cases {
		m.UpdateFromOwn(tx(c.op, 0x4000, 0), bus.Result{})
		if got := m.Action(0x4000); got != c.want {
			t.Errorf("after own %v: action %v, want %v", c.op, got, c.want)
		}
	}
	wat := tx(bus.WriteActionTable, 0x4000, 0)
	wat.Action = uint8(Notify)
	m.UpdateFromOwn(wat, bus.Result{})
	if m.Action(0x4000) != Notify {
		t.Error("write-action-table did not apply")
	}
}

func TestFIFOOrder(t *testing.T) {
	m := newMon(0)
	for i := uint32(0); i < 5; i++ {
		m.Post(tx(bus.ReadPrivate, i*pageSize, 1))
	}
	if m.Pending() != 5 {
		t.Fatalf("pending %d", m.Pending())
	}
	for i := uint32(0); i < 5; i++ {
		w, ok := m.Pop()
		if !ok || w.PAddr != i*pageSize || w.Op != bus.ReadPrivate {
			t.Fatalf("pop %d: %+v ok=%v", i, w, ok)
		}
	}
	if _, ok := m.Pop(); ok {
		t.Error("pop from empty FIFO succeeded")
	}
}

func TestFIFOOverflow(t *testing.T) {
	m := New(0, frames, pageSize, 4, nil)
	rec := stats.NewRecorder()
	m.BindRecorder(rec, "")
	for i := 0; i < 6; i++ {
		m.Post(tx(bus.ReadPrivate, uint32(i)*pageSize, 1))
	}
	if m.Pending() != 4 {
		t.Errorf("pending %d, want 4", m.Pending())
	}
	if !m.Dropped() {
		t.Error("overflow flag not set")
	}
	if d, n := rec.Value("dropped-words"), rec.Value("interrupts"); d != 2 || n != 4 {
		t.Errorf("dropped %d, interrupts %d; want 2, 4", d, n)
	}
	m.ClearDropped()
	if m.Dropped() {
		t.Error("ClearDropped did not clear")
	}
	m.Drain()
	if m.Pending() != 0 {
		t.Error("Drain left words")
	}
}

func TestFIFOWraparound(t *testing.T) {
	m := New(0, frames, pageSize, 4, nil)
	// Fill, drain half, refill: exercises ring wrap.
	for i := 0; i < 3; i++ {
		m.Post(tx(bus.ReadPrivate, uint32(i)*pageSize, 1))
	}
	m.Pop()
	m.Pop()
	for i := 3; i < 6; i++ {
		m.Post(tx(bus.ReadPrivate, uint32(i)*pageSize, 1))
	}
	want := []uint32{2, 3, 4, 5}
	for _, wf := range want {
		w, ok := m.Pop()
		if !ok || w.PAddr != wf*pageSize {
			t.Fatalf("wrap pop got %+v ok=%v, want frame %d", w, ok, wf)
		}
	}
}

func TestInterruptLine(t *testing.T) {
	m := newMon(0)
	fired := 0
	m.SetInterruptLine(func() { fired++ })
	m.Post(tx(bus.ReadPrivate, 0, 1))
	m.Post(tx(bus.ReadPrivate, 0, 1))
	if fired != 2 {
		t.Errorf("interrupt line fired %d times", fired)
	}
}

func TestActionString(t *testing.T) {
	if Ignore.String() != "ignore" || Private.String() != "private" {
		t.Error("Action.String")
	}
}
