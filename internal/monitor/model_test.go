package monitor

import (
	"fmt"
	"testing"

	"vmp/internal/bus"
	"vmp/internal/sim"
	"vmp/internal/stats"
)

// Model-based test: random sequences of action-table updates and bus
// transactions, checked against a plain-map reference implementation of
// the Section 3.2 decision table.

func refDecision(act Action, op bus.Op, own bool) (abort, interrupt bool) {
	switch act {
	case Ignore:
		return false, false
	case Shared:
		switch op {
		case bus.ReadPrivate, bus.AssertOwnership:
			return false, !own
		case bus.WriteBack:
			return true, !own
		default:
			return false, false
		}
	case Private:
		if own && op == bus.WriteBack {
			return false, false
		}
		return true, !own
	case Notify:
		if op == bus.Notify {
			return false, !own
		}
		return false, false
	}
	return false, false
}

func TestMonitorAgainstReferenceModel(t *testing.T) {
	const frames = 64
	const pageSize = 256
	m := New(3, frames, pageSize, 16, nil)
	table := make(map[uint32]Action) // reference action table
	rnd := sim.NewRand(99)
	ops := []bus.Op{bus.ReadShared, bus.ReadPrivate, bus.AssertOwnership, bus.WriteBack, bus.Notify}

	for step := 0; step < 30000; step++ {
		frame := uint32(rnd.Intn(frames))
		paddr := frame * pageSize
		ctx := func() string { return fmt.Sprintf("step %d frame %d", step, frame) }

		switch rnd.Intn(4) {
		case 0: // direct table write
			act := Action(rnd.Intn(4))
			m.SetAction(paddr, act)
			table[frame] = act
		case 1: // read back
			want := table[frame]
			if got := m.Action(paddr); got != want {
				t.Fatalf("%s: action %v, want %v", ctx(), got, want)
			}
		case 2: // check a transaction
			op := ops[rnd.Intn(len(ops))]
			req := rnd.Intn(5) // board 3 = own
			own := req == 3
			r := m.Check(bus.Transaction{Op: op, PAddr: paddr, Requester: req, Bytes: pageSize})
			wantAbort, wantIntr := refDecision(table[frame], op, own)
			if r.Abort != wantAbort || r.Interrupt != wantIntr {
				t.Fatalf("%s: %v own=%v act=%v: got (%v,%v), want (%v,%v)",
					ctx(), op, own, table[frame], r.Abort, r.Interrupt, wantAbort, wantIntr)
			}
		case 3: // side-effect update from an own successful transaction
			op := ops[rnd.Intn(len(ops))]
			tx := bus.Transaction{Op: op, PAddr: paddr, Requester: 3, Bytes: pageSize}
			if op == bus.WriteBack && rnd.Bool(0.5) {
				tx.Downgrade = true
			}
			m.UpdateFromOwn(tx, bus.Result{})
			switch op {
			case bus.ReadShared:
				table[frame] = Shared
			case bus.ReadPrivate, bus.AssertOwnership:
				table[frame] = Private
			case bus.WriteBack:
				if tx.Downgrade {
					table[frame] = Shared
				} else {
					table[frame] = Ignore
				}
			}
		}
	}
}

func TestFIFOModelSequence(t *testing.T) {
	// The FIFO against a plain slice queue, including overflow.
	const depth = 8
	m := New(0, 32, 256, depth, nil)
	rec := stats.NewRecorder()
	m.BindRecorder(rec, "")
	var ref []Word
	dropped := 0
	rnd := sim.NewRand(5)
	for step := 0; step < 20000; step++ {
		if rnd.Bool(0.55) {
			w := bus.Transaction{Op: bus.ReadPrivate, PAddr: uint32(rnd.Intn(32)) * 256}
			if len(ref) == depth {
				dropped++
			} else {
				ref = append(ref, Word{Op: w.Op, PAddr: w.PAddr})
			}
			m.Post(w)
		} else {
			got, ok := m.Pop()
			if ok != (len(ref) > 0) {
				t.Fatalf("step %d: pop ok=%v, ref len %d", step, ok, len(ref))
			}
			if ok {
				want := ref[0]
				ref = ref[1:]
				if got != want {
					t.Fatalf("step %d: pop %+v, want %+v", step, got, want)
				}
			}
		}
		if m.Pending() != len(ref) {
			t.Fatalf("step %d: pending %d, ref %d", step, m.Pending(), len(ref))
		}
	}
	if got := rec.Value("dropped-words"); got != int64(dropped) {
		t.Errorf("dropped %d, ref %d", got, dropped)
	}
	if (dropped > 0) != m.Dropped() {
		t.Errorf("dropped flag %v with %d drops", m.Dropped(), dropped)
	}
}
