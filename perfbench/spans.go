package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// span is one timed call into a layer, made from the benchmark's side
// of the public API. Spans of one operation share Op; Parent names the
// span that caused this one.
type span struct {
	Op      int     `json:"op"`
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	// AllocBytes is the heap allocated during the span, process-wide.
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
}

// spans keeps a traced run's spans in memory until the run ends, with
// running totals per span name. It is safe for concurrent use.
type spans struct {
	origin time.Time
	mu     sync.Mutex
	list   []span
	sums   map[string]time.Duration
	allocs map[string]uint64
}

func newSpans() *spans {
	return &spans{origin: time.Now(), sums: map[string]time.Duration{}, allocs: map[string]uint64{}}
}

// do runs f under a span that also records the heap it allocates.
func (s *spans) do(op int, name, parent string, f func() error) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := f()
	end := time.Now()
	runtime.ReadMemStats(&after)
	s.add(op, name, parent, start, end, after.TotalAlloc-before.TotalAlloc)
	return err
}

// add records a finished span.
func (s *spans) add(op int, name, parent string, start, end time.Time, alloc uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list = append(s.list, span{
		Op: op, Name: name, Parent: parent,
		StartUS:    float64(start.Sub(s.origin)) / float64(time.Microsecond),
		DurUS:      float64(end.Sub(start)) / float64(time.Microsecond),
		AllocBytes: alloc,
	})
	s.sums[name] += end.Sub(start)
	s.allocs[name] += alloc
}

// total is the summed duration of every span with this name.
func (s *spans) total(name string) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sums[name]
}

// alloc is the summed allocation of every span with this name.
func (s *spans) alloc(name string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.allocs[name]
}

// write saves the spans as JSON in the run's work directory and notes
// where.
func (s *spans) write(o options, res *result) error {
	s.mu.Lock()
	data, err := json.Marshal(s.list)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	path := filepath.Join(o.workDir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	res.notes = append(res.notes, "spans written to "+path)
	return nil
}
