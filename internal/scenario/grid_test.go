package scenario

import "testing"

func testGrid() *Grid {
	return &Grid{
		Name: "pagesweep",
		Base: Spec{Workload: WorkloadSpec{Refs: 1000}},
		Axes: []Axis{
			{Path: "machine.page_size", Values: Values(128, 256)},
			{Path: "machine.processors", Values: Values(1, 2, 4)},
		},
	}
}

// TestGridExpand pins the cross product: row-major order with the last
// axis fastest, axis values applied to each cell, cell names readable.
func TestGridExpand(t *testing.T) {
	cells, err := testGrid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6 {
		t.Fatalf("expanded %d cells, want 6", len(cells))
	}
	wantNames := []string{
		"pagesweep/page_size=128,processors=1",
		"pagesweep/page_size=128,processors=2",
		"pagesweep/page_size=128,processors=4",
		"pagesweep/page_size=256,processors=1",
		"pagesweep/page_size=256,processors=2",
		"pagesweep/page_size=256,processors=4",
	}
	wantPage := []int{128, 128, 128, 256, 256, 256}
	wantProcs := []int{1, 2, 4, 1, 2, 4}
	for i, c := range cells {
		if c.Name != wantNames[i] {
			t.Errorf("cell %d name = %q, want %q", i, c.Name, wantNames[i])
		}
		if c.Spec.Machine.PageSize != wantPage[i] || c.Spec.Machine.Processors != wantProcs[i] {
			t.Errorf("cell %d = page %d procs %d, want %d/%d",
				i, c.Spec.Machine.PageSize, c.Spec.Machine.Processors, wantPage[i], wantProcs[i])
		}
		if c.Spec.Workload.Refs != 1000 {
			t.Errorf("cell %d lost the base workload refs: %+v", i, c.Spec.Workload)
		}
		if c.Spec.Seed != 11 {
			t.Errorf("cell %d not normalized: seed %d", i, c.Spec.Seed)
		}
	}
}

// TestGridNestedPathCreation checks an axis can address a field whose
// parent objects are absent from the base (kernel.sched.tasks with no
// kernel in the base spec).
func TestGridNestedPathCreation(t *testing.T) {
	g := &Grid{
		Name: "sched",
		Axes: []Axis{{Path: "kernel.sched.tasks", Values: Values(2, 4)}},
	}
	cells, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("expanded %d cells, want 2", len(cells))
	}
	for i, want := range []int{2, 4} {
		k := cells[i].Spec.Kernel
		if k == nil || k.Sched == nil || k.Sched.Tasks != want {
			t.Errorf("cell %d kernel = %+v, want sched tasks %d", i, k, want)
		}
	}
}

// TestGridStringAxis checks string-valued axes (workload profiles,
// fault plans) expand into the cells.
func TestGridStringAxis(t *testing.T) {
	g := &Grid{
		Name: "profiles",
		Axes: []Axis{{Path: "workload.profile", Values: Values("edit", "compile")}},
	}
	cells, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].Spec.Workload.Profile != "edit" || cells[1].Spec.Workload.Profile != "compile" {
		t.Errorf("profiles not applied: %q, %q", cells[0].Spec.Workload.Profile, cells[1].Spec.Workload.Profile)
	}
}

// TestGridNoAxes checks a grid with no axes is a single-cell sweep of
// its base.
func TestGridNoAxes(t *testing.T) {
	g := &Grid{Name: "solo", Base: Spec{Machine: MachineSpec{Processors: 2}}}
	cells, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].Name != "solo" || cells[0].Spec.Machine.Processors != 2 {
		t.Fatalf("cells = %+v", cells)
	}
}

// TestGridRejections covers axis validation and invalid cells.
func TestGridRejections(t *testing.T) {
	if _, err := (&Grid{Axes: []Axis{{Path: "", Values: Values(1)}}}).Expand(); err == nil {
		t.Error("empty axis path accepted")
	}
	if _, err := (&Grid{Axes: []Axis{{Path: "seed"}}}).Expand(); err == nil {
		t.Error("empty axis values accepted")
	}
	bad := &Grid{Axes: []Axis{{Path: "machine.page_size", Values: Values(100)}}}
	if _, err := bad.Expand(); err == nil {
		t.Error("invalid cell (page size 100) accepted")
	}
	typo := &Grid{Axes: []Axis{{Path: "machine.page_sizes", Values: Values(128)}}}
	if _, err := typo.Expand(); err == nil {
		t.Error("axis path typo accepted (should fail spec parse)")
	}
}

// TestParseGridUnknownField checks grid files reject typos too.
func TestParseGridUnknownField(t *testing.T) {
	if _, err := ParseGrid([]byte(`{"nam": "x"}`)); err == nil {
		t.Fatal("ParseGrid accepted an unknown field")
	}
}
