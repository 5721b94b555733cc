package scenario

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// smallSpec is a quick multi-board run with the event stream retained,
// so summaries carry a digest.
func smallSpec() Spec {
	return Spec{
		Name:     "small",
		Machine:  MachineSpec{Processors: 2, CacheSize: 32 << 10, PageSize: 256, Assoc: 2},
		Workload: WorkloadSpec{Profile: "edit", Refs: 4000},
		Obs:      ObsSpec{Stream: true},
	}
}

// TestRunBasic checks a scenario runs end to end and produces a
// populated summary with no violations.
func TestRunBasic(t *testing.T) {
	res, err := Run(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if res.Fingerprint == "" {
		t.Error("no fingerprint")
	}
	if res.Machine == nil {
		t.Error("no machine retained")
	}
	s := res.Summary
	if s.Refs != 8000 {
		t.Errorf("Refs = %d, want 8000 (2 boards x 4000)", s.Refs)
	}
	if s.SimNs <= 0 || s.EventsFired == 0 {
		t.Errorf("empty-looking run: sim_ns %d, events %d", s.SimNs, s.EventsFired)
	}
	if s.Digest == "" {
		t.Error("no event-stream digest despite Obs.Stream")
	}
	if s.Violations != 0 || len(res.Violations) != 0 {
		t.Errorf("violations: %v", res.Violations)
	}
	if len(s.Boards) != 2 {
		t.Fatalf("boards = %d, want 2", len(s.Boards))
	}
	for i, b := range s.Boards {
		if b.Refs != 4000 {
			t.Errorf("board %d refs = %d, want 4000", i, b.Refs)
		}
	}
}

// TestRunDeterministic pins the tentpole property: the same spec (same
// fingerprint) produces a byte-identical summary and event-stream
// digest across runs.
func TestRunDeterministic(t *testing.T) {
	r1, err := Run(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Fingerprint != r2.Fingerprint {
		t.Fatalf("fingerprints differ: %s vs %s", r1.Fingerprint, r2.Fingerprint)
	}
	j1, _ := json.Marshal(r1.Summary)
	j2, _ := json.Marshal(r2.Summary)
	if !bytes.Equal(j1, j2) {
		t.Errorf("summaries differ:\n  %s\n  %s", j1, j2)
	}
	if r1.Summary.Digest != r2.Summary.Digest {
		t.Errorf("digests differ: %s vs %s", r1.Summary.Digest, r2.Summary.Digest)
	}
}

// TestRunDoesNotMutateSpec checks Run normalizes a deep copy.
func TestRunDoesNotMutateSpec(t *testing.T) {
	s := smallSpec()
	s.Kernel = &KernelSpec{}
	if _, err := Run(s); err != nil {
		t.Fatal(err)
	}
	if s.Seed != 0 || s.Kernel.UncachedPages != 0 {
		t.Errorf("Run mutated the caller's spec: %+v kernel %+v", s, *s.Kernel)
	}
}

// TestRunWithScheduler checks a kernel-scheduled scenario reports
// context switches.
func TestRunWithScheduler(t *testing.T) {
	s := smallSpec()
	s.Kernel = &KernelSpec{Sched: &SchedSpec{Tasks: 2, QuantumUS: 100}}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.SchedSwitches == 0 {
		t.Error("scheduled run reported zero context switches")
	}
	if res.Summary.Refs == 0 {
		t.Error("scheduled run retired no references")
	}
}

// TestRunWithFaults checks a faulty scenario surfaces fault and checker
// counters and recovers.
func TestRunWithFaults(t *testing.T) {
	s := smallSpec()
	s.Faults = "abort=0.2"
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Summary.FaultCounters) == 0 {
		t.Error("no fault counters despite abort=0.2")
	}
	if res.Summary.Retries == 0 {
		t.Error("no retries despite injected aborts")
	}
}

// TestRunAsm checks the asm workload kind executes on every board.
func TestRunAsm(t *testing.T) {
	s := Spec{
		Name:    "asm",
		Machine: MachineSpec{Processors: 2, CacheSize: 16 << 10, PageSize: 256, Assoc: 2},
		Workload: WorkloadSpec{
			Kind: WorkloadAsm,
			Asm: `
				li r1, 0x2000
				li r2, 7
				sw r2, 0(r1)
				lw r3, 0(r1)
				halt
			`,
		},
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Refs == 0 {
		t.Error("asm run retired no references")
	}
}

// TestRunGridSerialParallelIdentical is the sweep engine's determinism
// gate: the same grid produces a byte-identical SweepResult whether the
// cells run serially or on four workers.
func TestRunGridSerialParallelIdentical(t *testing.T) {
	grid := func() *Grid {
		return &Grid{
			Name: "det",
			Base: Spec{
				Machine:  MachineSpec{Processors: 2, CacheSize: 32 << 10, PageSize: 256, Assoc: 2},
				Workload: WorkloadSpec{Refs: 2000},
				Obs:      ObsSpec{Stream: true},
			},
			Axes: []Axis{
				{Path: "machine.page_size", Values: Values(128, 256)},
				{Path: "workload.profile", Values: Values("edit", "compile")},
			},
		}
	}
	serial, err := RunGrid(grid(), RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunGrid(grid(), RunOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	js, _ := json.Marshal(serial)
	jp, _ := json.Marshal(parallel)
	if !bytes.Equal(js, jp) {
		t.Fatalf("serial and parallel sweeps differ:\n  %s\n  %s", js, jp)
	}
	if len(serial.Cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(serial.Cells))
	}
	for _, c := range serial.Cells {
		if c.Err != "" {
			t.Errorf("cell %s failed: %s", c.Name, c.Err)
		}
		if c.Summary.Digest == "" {
			t.Errorf("cell %s has no digest", c.Name)
		}
	}
	if serial.Failures() != 0 {
		t.Errorf("Failures() = %d, want 0", serial.Failures())
	}
}

// TestRunCellsDefaultWorkersIsParallel checks Workers: 0 runs cells
// concurrently: two cells must reach CellDone at the same time. Each
// waits there for the other, so a serial sweep times out instead.
func TestRunCellsDefaultWorkersIsParallel(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs GOMAXPROCS >= 2")
	}
	cells := []Cell{{Name: "a", Spec: namedSpec("a")}, {Name: "b", Spec: namedSpec("b")}}
	var arrived sync.WaitGroup
	arrived.Add(len(cells))
	both := make(chan struct{})
	go func() { arrived.Wait(); close(both) }()
	var overlapped atomic.Int32
	_, err := RunCells("default-workers", cells, RunOptions{CellDone: func(CellResult) {
		arrived.Done()
		select {
		case <-both:
			overlapped.Add(1)
		case <-time.After(5 * time.Second):
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if n := overlapped.Load(); n != 2 {
		t.Fatalf("Workers: 0 ran the cells serially (%d of 2 saw the other in flight)", n)
	}
}

// TestSweepWriteJSON checks the artifact writer emits a parseable file.
func TestSweepWriteJSON(t *testing.T) {
	g := &Grid{Name: "tiny", Base: smallSpec()}
	g.Base.Workload.Refs = 500
	res, err := RunGrid(g, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweep.json")
	if err := res.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	sr, err := readSweepFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Cells) != 1 || sr.Cells[0].Summary.Refs == 0 {
		t.Errorf("artifact round trip lost data: %+v", sr)
	}
}
