package monitor

import (
	"testing"

	"vmp/internal/bus"
	"vmp/internal/stats"
)

// fixedStorm injects a fixed number of duplicate words per post.
type fixedStorm struct{ extra int }

func (s fixedStorm) StormExtra() int { return s.extra }

// post enqueues one interrupt word for a foreign transaction the entry
// state makes interrupt-worthy.
func post(m *Monitor, paddr uint32) {
	m.Post(tx(bus.ReadPrivate, paddr, 1))
}

func TestDepthLimitOverflow(t *testing.T) {
	m := New(0, frames, pageSize, 8, nil)
	rec := stats.NewRecorder()
	m.BindRecorder(rec, "")
	m.SetDepthLimit(2)

	post(m, 0x1000)
	post(m, 0x2000)
	if m.Dropped() {
		t.Fatal("dropped before the squeezed capacity was reached")
	}
	post(m, 0x3000)
	if !m.Dropped() {
		t.Fatal("third word within depth limit 2 not dropped")
	}
	if m.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", m.Pending())
	}
	// The queued words survive the overflow, in order.
	w, ok := m.Pop()
	if !ok || w.PAddr != 0x1000 {
		t.Fatalf("first pop = %+v, %v", w, ok)
	}
	w, _ = m.Pop()
	if w.PAddr != 0x2000 {
		t.Fatalf("second pop = %+v", w)
	}
	if d, n := rec.Value("dropped-words"), rec.Value("interrupts"); d != 1 || n != 2 {
		t.Fatalf("dropped %d, enqueued %d; want 1 dropped / 2 enqueued", d, n)
	}

	// ClearDropped resets the flag without touching the queue.
	m.ClearDropped()
	if m.Dropped() {
		t.Fatal("ClearDropped did not clear")
	}
	post(m, 0x4000)
	post(m, 0x5000)
	post(m, 0x6000)
	if !m.Dropped() || m.Pending() != 2 {
		t.Fatalf("after refill: dropped=%v pending=%d", m.Dropped(), m.Pending())
	}

	// Drain empties the queue but leaves the overflow flag for the
	// recovery path to acknowledge.
	m.Drain()
	if m.Pending() != 0 {
		t.Fatalf("pending after Drain = %d", m.Pending())
	}
	if !m.Dropped() {
		t.Fatal("Drain must not clear the overflow flag")
	}
	if _, ok := m.Pop(); ok {
		t.Fatal("Pop succeeded on a drained FIFO")
	}

	// Lifting the limit restores the full depth.
	m.ClearDropped()
	m.SetDepthLimit(0)
	for i := 0; i < 8; i++ {
		post(m, uint32(0x1000*(i+1)))
	}
	if m.Dropped() || m.Pending() != 8 {
		t.Fatalf("full depth: dropped=%v pending=%d, want 8 queued", m.Dropped(), m.Pending())
	}
}

func TestStormDuplicatesWords(t *testing.T) {
	m := New(0, frames, pageSize, 16, nil)
	m.SetInjector(fixedStorm{extra: 3})

	post(m, 0x2000)
	if m.Pending() != 4 {
		t.Fatalf("pending = %d, want 1 word + 3 duplicates", m.Pending())
	}
	for i := 0; i < 4; i++ {
		w, ok := m.Pop()
		if !ok || w.PAddr != 0x2000 || w.Op != bus.ReadPrivate {
			t.Fatalf("word %d = %+v, %v", i, w, ok)
		}
	}

	// A storm against a squeezed FIFO overflows; the real word is
	// enqueued before the duplicates, so it is never the one lost.
	m.SetDepthLimit(2)
	post(m, 0x3000)
	if !m.Dropped() {
		t.Fatal("storm against depth 2 did not overflow")
	}
	if w, ok := m.Pop(); !ok || w.PAddr != 0x3000 {
		t.Fatalf("real word lost in storm: %+v, %v", w, ok)
	}
}

func TestForEachVisitsNonIgnoreEntries(t *testing.T) {
	m := newMon(0)
	m.SetAction(0*pageSize, Shared)
	m.SetAction(5*pageSize, Private)
	m.SetAction(9*pageSize, Notify)

	got := map[uint32]Action{}
	var order []uint32
	m.ForEach(func(frame uint32, act Action) {
		got[frame] = act
		order = append(order, frame)
	})
	want := map[uint32]Action{0: Shared, 5: Private, 9: Notify}
	if len(got) != len(want) {
		t.Fatalf("visited %v, want %v", got, want)
	}
	for f, a := range want {
		if got[f] != a {
			t.Errorf("frame %d: %v, want %v", f, got[f], a)
		}
	}
	for i := 1; i < len(order); i++ {
		if order[i-1] >= order[i] {
			t.Fatalf("frames visited out of order: %v", order)
		}
	}
}
