package stats

import "testing"

func TestRecorderCounters(t *testing.T) {
	r := NewRecorder()
	c := r.Counter("bus/aborts")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("bus/aborts") != c {
		t.Error("second lookup returned a different handle")
	}
	if got := r.Value("bus/aborts"); got != 5 {
		t.Errorf("Value = %d, want 5", got)
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	c := r.Counter("x")
	c.Inc() // must not panic
	if c.Value() != 0 {
		t.Error("nil counter accumulated")
	}
	if r.Snapshot() != nil {
		t.Error("nil recorder snapshot non-nil")
	}
}

func TestRecorderSnapshotSorted(t *testing.T) {
	r := NewRecorder()
	r.Counter("z").Add(1)
	r.Counter("a").Add(2)
	r.Counter("m").Add(3)
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot len %d, want 3", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name >= snap[i].Name {
			t.Errorf("snapshot not sorted: %q before %q", snap[i-1].Name, snap[i].Name)
		}
	}
	tbl := r.Table("metrics")
	if len(tbl.Rows) != 3 {
		t.Errorf("table rows %d, want 3", len(tbl.Rows))
	}
}
