package experiments

import (
	"strings"
	"testing"
)

func TestIDsAndDescribeAgree(t *testing.T) {
	ids := IDs()
	if len(ids) < 15 {
		t.Fatalf("only %d experiments", len(ids))
	}
	for i, id := range ids {
		if Registry[i].ID != id || Registry[i].Title == "" {
			t.Errorf("no description for %s", id)
		}
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Errorf("duplicate id %s", id)
		}
		seen[id] = true
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("nonsense", DefaultOptions()); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestResultString(t *testing.T) {
	r, err := Run("fig2", Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := r.String()
	for _, want := range []string{"== fig2", "Transaction", "paper:"} {
		if !strings.Contains(out, want) {
			t.Errorf("Result.String missing %q", want)
		}
	}
}

func TestFigure1Renders(t *testing.T) {
	r, err := Run("fig1", Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	out := r.String()
	for _, want := range []string{"bus monitor", "bus isolator", "VMEbus", "cache"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig1 missing %q", want)
		}
	}
}

func TestOptionsTraceLen(t *testing.T) {
	if (Options{Quick: true}).traceLen() >= (Options{}).traceLen() {
		t.Error("quick trace not shorter")
	}
	if DefaultOptions().Seed == 0 {
		t.Error("default seed zero")
	}
}

// Determinism guard: the same options must produce byte-identical
// results for every experiment (the simulator's core promise).
func TestExperimentsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism sweep in -short mode")
	}
	for _, id := range []string{"table1", "fig3", "locks", "alias", "workqueue", "spinfair"} {
		id := id
		t.Run(id, func(t *testing.T) {
			o := Options{Quick: true, Seed: 7}
			a, err := Run(id, o)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(id, o)
			if err != nil {
				t.Fatal(err)
			}
			if a.String() != b.String() {
				t.Errorf("nondeterministic output for %s", id)
			}
		})
	}
}
