package core

import (
	"context"
	"errors"
	"testing"

	"vmp/internal/trace"
	"vmp/internal/workload"
)

// traceMachine builds a 2-board machine with long edit traces attached,
// enough work that a cancellation always lands mid-run.
func traceMachine(t *testing.T) *Machine {
	t.Helper()
	m := newTestMachine(t, 2)
	for i := 0; i < 2; i++ {
		refs, err := workload.Generate(workload.Edit, uint64(i+1), 150_000)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.EnsureSpace(1); err != nil {
			t.Fatal(err)
		}
		m.RunTrace(i, trace.NewSliceSource(refs))
	}
	return m
}

func TestRunCtxCanceledStopsAndUnwinds(t *testing.T) {
	m := traceMachine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := m.RunCtx(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx error = %v, want context.Canceled", err)
	}
	if live := m.Eng.Live(); live != 0 {
		t.Fatalf("%d live processes after cancelled RunCtx; coroutines leaked", live)
	}
}

func TestRunCtxUnfiredContextIsIdentical(t *testing.T) {
	plain := traceMachine(t)
	endPlain := plain.Run()

	withCtx := traceMachine(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	endCtx, err := withCtx.RunCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if endPlain != endCtx {
		t.Fatalf("end time diverged: Run %v vs RunCtx %v", endPlain, endCtx)
	}
	csA, bsA := plain.TotalStats()
	csB, bsB := withCtx.TotalStats()
	if csA != csB || bsA != bsB {
		t.Fatalf("stats diverged with an unfired context:\n%+v %+v\nvs\n%+v %+v", csA, bsA, csB, bsB)
	}
}
