package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
)

// RunOptions tunes grid execution, not its results: Workers only
// changes wall-clock, never a cell's summary.
type RunOptions struct {
	// Workers is the number of cells simulated concurrently; values < 1
	// mean GOMAXPROCS. Never wire data (json:"-"): options must not leak
	// into any canonical encoding, since they cannot affect results.
	Workers int `json:"-"`
	// Ctx cancels the sweep: workers stop claiming cells, in-flight
	// cells stop promptly, and the sweep returns the context's error
	// alongside the partial results. Nil means never cancelled. A
	// context that never fires cannot change any cell's bytes.
	Ctx context.Context `json:"-"`
	// Guard runs each cell behind scenario.RunGuarded, converting a
	// simulator panic into that cell's Err/Dump instead of crashing the
	// whole sweep. Guarding a panic-free sweep changes nothing.
	Guard bool `json:"-"`
	// CellDone, when non-nil, receives each completed cell result
	// (called from worker goroutines, completion order).
	CellDone func(cr CellResult) `json:"-"`
	// ResultDone, when non-nil, additionally receives the full RunResult
	// (machine attached) for each successfully simulated cell, before
	// the machine is released. rr is nil when the cell errored. Like the
	// other hooks it observes results; it cannot change them.
	ResultDone func(cr CellResult, rr *RunResult) `json:"-"`
}

// CellResult is one grid point's machine-readable outcome —
// BENCH_*.json-compatible: a name, the exact spec that ran, its
// fingerprint, and the summary.
type CellResult struct {
	Name        string  `json:"name"`
	Fingerprint string  `json:"fingerprint,omitempty"`
	Spec        Spec    `json:"spec"`
	Summary     Summary `json:"summary"`
	// Violations carries invariant-checker reports verbatim.
	Violations []string `json:"violations,omitempty"`
	// Err is set when the cell failed to run at all.
	Err string `json:"error,omitempty"`
	// Dump is the flight-recorder dump attached to a guarded cell whose
	// simulator panicked (see RunOptions.Guard); empty otherwise.
	Dump string `json:"dump,omitempty"`
}

// SweepResult is the artifact a grid run emits.
type SweepResult struct {
	Name  string       `json:"name,omitempty"`
	Cells []CellResult `json:"cells"`
}

// RunGrid expands the grid and runs every cell, Workers at a time.
// Cell results are returned in expansion order regardless of worker
// count; since each cell's summary is a pure function of its spec, the
// returned SweepResult is byte-identical for any Workers value.
func RunGrid(g *Grid, opts RunOptions) (*SweepResult, error) {
	cells, err := g.Expand()
	if err != nil {
		return nil, err
	}
	res, err := RunCells(g.Name, cells, opts)
	if err != nil {
		return res, err
	}
	return res, nil
}

// RunCells runs an already-expanded cell list, Workers at a time (the
// body of RunGrid, exposed so the serving layer can schedule cells it
// validated itself). When opts.Ctx is cancelled it returns the partial
// results together with the context's error: completed cells are
// intact, unfinished ones carry the cancellation in Err.
func RunCells(name string, cells []Cell, opts RunOptions) (*SweepResult, error) {
	res := &SweepResult{Name: name, Cells: make([]CellResult, len(cells))}
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}

	workers := opts.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cells) {
					return
				}
				cr := CellResult{Name: cells[i].Name, Spec: cells[i].Spec}
				if err := ctx.Err(); err != nil {
					cr.Err = err.Error()
					res.Cells[i] = cr
					continue
				}
				var rr *RunResult
				var err error
				if opts.Guard {
					rr, err = RunGuarded(ctx, cells[i].Spec)
				} else {
					rr, err = RunCtx(ctx, cells[i].Spec)
				}
				if err != nil {
					cr.Err = err.Error()
					var pe *PanicError
					if errors.As(err, &pe) {
						cr.Fingerprint = pe.Fingerprint
						cr.Dump = pe.Dump
					}
				} else {
					cr.Fingerprint = rr.Fingerprint
					cr.Spec = rr.Spec
					cr.Summary = rr.Summary
					cr.Violations = rr.Violations
				}
				res.Cells[i] = cr
				if opts.CellDone != nil {
					opts.CellDone(cr)
				}
				if opts.ResultDone != nil {
					opts.ResultDone(cr, rr)
				}
			}
		}()
	}
	wg.Wait()
	return res, ctx.Err()
}

// Failures counts cells that errored or reported violations.
func (r *SweepResult) Failures() int {
	n := 0
	for _, c := range r.Cells {
		if c.Err != "" || c.Summary.Violations > 0 {
			n++
		}
	}
	return n
}

// readSweepFile parses a sweep artifact back (used by tests).
func readSweepFile(path string) (*SweepResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r SweepResult
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// WriteJSON writes the sweep artifact, indented, to path.
func (r *SweepResult) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing sweep results: %w", err)
	}
	return nil
}
