package stats

import "sort"

// Recorder is a per-run metrics sink. Every simulation run owns exactly
// one Recorder (reachable through its engine), and every component of
// that run — bus, caches, monitors, boards — registers named counters
// in it at construction time. Counters are plain int64 cells behind a
// handle, so the hot-path cost of counting is a pointer write; the
// Recorder itself is only consulted when a run is summarized.
//
// A Recorder is confined to its run: it is not safe for concurrent use
// from multiple goroutines, which is exactly the discipline the
// simulator already imposes (one engine, one event loop). Separate runs
// use separate Recorders and may proceed in parallel.
type Recorder struct {
	counters map[string]*Counter
}

// NewRecorder returns an empty metrics sink.
func NewRecorder() *Recorder {
	return &Recorder{counters: make(map[string]*Counter)}
}

// Counter is a monotonically named int64 cell. A nil Counter discards
// updates, so components may run without a sink attached.
type Counter struct {
	name string
	v    int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v += n
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil Counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Name returns the registered name.
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Counter returns the named counter, registering it on first use.
// Calling Counter on a nil Recorder returns a nil (discarding) handle.
func (r *Recorder) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name}
	r.counters[name] = c
	return c
}

// Value returns the current value of a named counter, or 0 if it does
// not exist.
func (r *Recorder) Value(name string) int64 {
	if r == nil {
		return 0
	}
	if c, ok := r.counters[name]; ok {
		return c.v
	}
	return 0
}

// Metric is one named measurement in a snapshot.
type Metric struct {
	Name  string
	Value int64
}

// Snapshot returns every registered counter, sorted by name,
// so two identical runs render identical summaries.
func (r *Recorder) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	out := make([]Metric, 0, len(r.counters))
	for _, c := range r.counters {
		out = append(out, Metric{Name: c.name, Value: c.v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Table renders a snapshot as a two-column table, omitting zero-valued
// metrics (components register eagerly, so most runs touch only a
// subset).
func (r *Recorder) Table(title string) *Table {
	t := NewTable(title, "Metric", "Value")
	for _, m := range r.Snapshot() {
		if m.Value != 0 {
			t.Add(m.Name, m.Value)
		}
	}
	return t
}
