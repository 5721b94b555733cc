package experiments

import (
	"bytes"
	"testing"

	"vmp/internal/scenario"
)

// experimentGrids are the grids the experiments execute through
// scenario.Run; every other experiment is plain code.
var experimentGrids = []func(Options) *scenario.Grid{fig5Grid, scalingGrid, topologyGrid}

// TestEveryExperimentHasScenario checks every experiment that runs as
// data (fig5, scaling, topology) names a registered experiment, and
// that its full-mode grid expands and every cell's Spec fingerprints
// and round-trips through canonical JSON to a fixed point with the same
// fingerprint.
func TestEveryExperimentHasScenario(t *testing.T) {
	checkExperimentGrids(t, false)
}

// TestScenarioQuickVariants is TestEveryExperimentHasScenario for the
// quick-mode grids.
func TestScenarioQuickVariants(t *testing.T) {
	checkExperimentGrids(t, true)
}

func checkExperimentGrids(t *testing.T, quick bool) {
	for _, grid := range experimentGrids {
		grid := grid
		o := DefaultOptions()
		o.Quick = quick
		g := grid(o)
		t.Run(g.Name, func(t *testing.T) {
			if _, ok := Lookup(g.Name); !ok {
				t.Fatalf("grid %q is not a registered experiment", g.Name)
			}
			cells, err := g.Expand()
			if err != nil {
				t.Fatalf("quick=%v: grid does not expand: %v", quick, err)
			}
			if len(cells) == 0 {
				t.Fatalf("quick=%v: grid expanded to zero cells", quick)
			}
			for _, c := range cells {
				checkCellRoundTrip(t, c)
			}
		})
	}
}

// checkCellRoundTrip checks c's Spec fingerprints, and that its
// canonical JSON parses back to a fixed point with the same
// fingerprint.
func checkCellRoundTrip(t *testing.T, c scenario.Cell) {
	t.Helper()
	fp, err := c.Spec.Fingerprint()
	if err != nil {
		t.Fatalf("cell %q does not fingerprint: %v", c.Name, err)
	}
	canon, err := c.Spec.Canonical()
	if err != nil {
		t.Fatalf("cell %q has no canonical form: %v", c.Name, err)
	}
	back, err := scenario.ParseSpec(canon)
	if err != nil {
		t.Fatalf("cell %q canonical JSON does not parse: %v", c.Name, err)
	}
	canon2, err := back.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canon, canon2) {
		t.Errorf("cell %q canonical form is not a fixed point:\n  %s\n  %s", c.Name, canon, canon2)
	}
	fp2, err := back.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp != fp2 {
		t.Errorf("cell %q fingerprint changed across the round trip: %s vs %s", c.Name, fp, fp2)
	}
}
