package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"vmp/internal/core"
)

// livelockSpec is a deterministic livelock reproduction: every
// abortable bus transaction is aborted (abort=1), so the first miss
// retries until the (deliberately tiny) hard limit trips the
// simulator's livelock panic.
func livelockSpec() Spec {
	return Spec{
		Name: "livelock-repro",
		Machine: MachineSpec{
			Processors: 1,
			Retry:      &core.RetryPolicy{BackoffShiftCap: 2, StarveThreshold: 4, HardLimit: 8},
		},
		Workload: WorkloadSpec{Kind: WorkloadProfile, Refs: 1_000},
		Faults:   "abort=1",
		Obs:      ObsSpec{RingSize: 128},
	}
}

func namedSpec(name string) Spec {
	return Spec{
		Name:     name,
		Workload: WorkloadSpec{Kind: WorkloadProfile, Refs: 3_000},
	}
}

func TestRunCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunCtx(ctx, namedSpec("cancelled"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx error = %v, want context.Canceled", err)
	}
}

func TestRunCtxUnfiredContextIsByteIdentical(t *testing.T) {
	plain, err := Run(namedSpec("ident"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	withCtx, err := RunCtx(ctx, namedSpec("ident"))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(plain.Summary)
	b, _ := json.Marshal(withCtx.Summary)
	if string(a) != string(b) {
		t.Fatalf("summary diverged with an unfired context:\n%s\nvs\n%s", a, b)
	}
	if plain.Fingerprint != withCtx.Fingerprint {
		t.Fatalf("fingerprint diverged: %s vs %s", plain.Fingerprint, withCtx.Fingerprint)
	}
}

func TestRunGuardedContainsLivelock(t *testing.T) {
	res, err := RunGuarded(context.Background(), livelockSpec())
	if err == nil {
		t.Fatalf("RunGuarded returned %+v; want a contained livelock fault", res)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v (%T), want *PanicError", err, err)
	}
	if !strings.Contains(pe.Message, "livelocked") {
		t.Errorf("Message = %q, want the livelock panic text", pe.Message)
	}
	if pe.Name != "livelock-repro" {
		t.Errorf("Name = %q, want livelock-repro", pe.Name)
	}
	if len(pe.Fingerprint) != 16 {
		t.Errorf("Fingerprint = %q, want 16 hex digits", pe.Fingerprint)
	}
	if !strings.Contains(pe.Dump, "FLIGHT RECORDER DUMP") || !strings.Contains(pe.Dump, "livelock") {
		t.Errorf("Dump does not carry the flight-recorder dump:\n%.300s", pe.Dump)
	}
	if pe.Stack == "" {
		t.Error("Stack is empty; the process panic should carry its goroutine stack")
	}
	if pe.Error() == "" || !strings.Contains(pe.Error(), "livelock-repro") {
		t.Errorf("Error() = %q", pe.Error())
	}
}

// TestRunGuardedLeaksNoGoroutines pins the containment contract that
// makes a long-running daemon viable: repeated faulted runs must not
// accumulate parked coroutines.
func TestRunGuardedLeaksNoGoroutines(t *testing.T) {
	// Warm up once so lazily started runtime goroutines don't skew the
	// baseline.
	if _, err := RunGuarded(context.Background(), livelockSpec()); err == nil {
		t.Fatal("expected a fault")
	}
	base := runtime.NumGoroutine()
	const rounds = 8
	for i := 0; i < rounds; i++ {
		if _, err := RunGuarded(context.Background(), livelockSpec()); err == nil {
			t.Fatal("expected a fault")
		}
	}
	// Killed coroutines exit asynchronously after the kill handshake
	// completes their final yield; give the scheduler a moment.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines grew from %d to %d over %d faulted runs", base, runtime.NumGoroutine(), rounds)
}

func TestRunCellsGuardIsolatesFaultyCell(t *testing.T) {
	cells := []Cell{
		{Name: "bad", Spec: livelockSpec()},
		{Name: "good", Spec: namedSpec("good")},
	}
	res, err := RunCells("guarded", cells, RunOptions{Workers: 2, Guard: true})
	if err != nil {
		t.Fatal(err)
	}
	bad, good := res.Cells[0], res.Cells[1]
	if bad.Err == "" || !strings.Contains(bad.Err, "livelock") {
		t.Errorf("bad cell Err = %q, want the livelock fault", bad.Err)
	}
	if bad.Dump == "" {
		t.Error("bad cell has no flight-recorder dump attached")
	}
	if len(bad.Fingerprint) != 16 {
		t.Errorf("bad cell Fingerprint = %q", bad.Fingerprint)
	}
	if good.Err != "" {
		t.Fatalf("good cell failed: %s", good.Err)
	}
	if good.Summary.Refs == 0 {
		t.Error("good cell ran no references")
	}
	if res.Failures() != 1 {
		t.Errorf("Failures() = %d, want 1", res.Failures())
	}
}

func TestRunCellsCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cells := []Cell{
		{Name: "a", Spec: namedSpec("a")},
		{Name: "b", Spec: namedSpec("b")},
	}
	res, err := RunCells("cancelled", cells, RunOptions{Workers: 2, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCells error = %v, want context.Canceled", err)
	}
	for _, c := range res.Cells {
		if c.Err == "" {
			t.Errorf("cell %s completed under a cancelled context", c.Name)
		}
	}
}

func TestRunCellsCellDone(t *testing.T) {
	cells := []Cell{
		{Name: "a", Spec: namedSpec("a")},
		{Name: "b", Spec: namedSpec("b")},
	}
	done := make(chan CellResult, len(cells))
	_, err := RunCells("done", cells, RunOptions{
		Workers:  2,
		CellDone: func(cr CellResult) { done <- cr },
	})
	if err != nil {
		t.Fatal(err)
	}
	close(done)
	seen := map[string]bool{}
	for cr := range done {
		if cr.Err != "" {
			t.Errorf("cell %s: %s", cr.Name, cr.Err)
		}
		seen[cr.Name] = true
	}
	if !seen["a"] || !seen["b"] {
		t.Fatalf("CellDone missed cells: %v", seen)
	}
}

// probeCancelCtx is a context whose Err turns non-nil on its nth call,
// so the engine's cancel probe stops a run at a deterministic point
// mid-flight.
type probeCancelCtx struct {
	context.Context
	calls, n int
	done     chan struct{}
}

func (c *probeCancelCtx) Done() <-chan struct{} { return c.done }

func (c *probeCancelCtx) Err() error {
	c.calls++
	if c.calls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestRunLifecycleLeaksNothing pins process retirement across the three
// ways a run ends: a completed Run (whose parked per-board copiers must
// be closed), a contained fault, and a cancellation mid-run. Each leaves
// no live process on its engine, and repeating them leaves the
// goroutine count where it started.
func TestRunLifecycleLeaksNothing(t *testing.T) {
	lifecycles := []struct {
		name string
		run  func(t *testing.T) *core.Machine
	}{
		{"completed", func(t *testing.T) *core.Machine {
			res, err := Run(namedSpec("lifecycle"))
			if err != nil {
				t.Fatal(err)
			}
			return res.Machine
		}},
		{"faulted", func(t *testing.T) *core.Machine {
			var rs runState
			var pe *PanicError
			if _, err := runGuarded(context.Background(), livelockSpec(), &rs); !errors.As(err, &pe) {
				t.Fatalf("error %v, want a contained *PanicError", err)
			}
			return rs.machine
		}},
		{"cancelled", func(t *testing.T) *core.Machine {
			var rs runState
			spec := namedSpec("lifecycle-cancelled")
			spec.Workload.Refs = 50_000
			ctx := &probeCancelCtx{Context: context.Background(), n: 3, done: make(chan struct{})}
			if _, err := run(ctx, spec, nil, &rs); !errors.Is(err, context.Canceled) {
				t.Fatalf("error %v, want context.Canceled", err)
			}
			if m := rs.machine; m.Eng.Metrics().EventsFired == 0 || m.Eng.Pending() == 0 {
				t.Fatal("the cancellation did not land mid-run")
			}
			return rs.machine
		}},
	}
	round := func() {
		for _, lc := range lifecycles {
			if m := lc.run(t); m.Eng.Live() != 0 {
				t.Fatalf("%s run: Live() = %d, want 0", lc.name, m.Eng.Live())
			}
		}
	}
	round() // warm up lazily started runtime goroutines
	base := runtime.NumGoroutine()
	for i := 0; i < 4; i++ {
		round()
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got != base {
		t.Fatalf("goroutines went from %d to %d over repeated runs", base, got)
	}
}
