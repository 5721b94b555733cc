package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"testing"
	"time"

	"vmp/internal/scenario"
)

func shortOptions(t *testing.T, workload string, trace bool) options {
	return options{
		workload: workload,
		seed:     3,
		seconds:  400 * time.Millisecond,
		trace:    trace,
		short:    true,
		workDir:  t.TempDir(),
	}
}

// TestShortWorkloads runs every workload at tiny size, untraced and
// traced, and checks the verdict and that exactly the contract's
// metrics are printed, each with its unit.
func TestShortWorkloads(t *testing.T) {
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[trace], func(t *testing.T) {
				res, err := run(shortOptions(t, name, trace))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 {
					t.Fatalf("correct %v, attempted %d; notes:\n%v", res.Correct, res.Attempted, res.notes)
				}
				if name == "vmpd-mix" {
					// Exactly the unnamed share fails: one submission per round.
					if res.Failed*len(round) != res.Attempted {
						t.Errorf("failed %d of %d, want exactly 1 in %d", res.Failed, res.Attempted, len(round))
					}
				} else if res.Failed != 0 {
					t.Errorf("failed %d of %d, want 0", res.Failed, res.Attempted)
				}
				set := endToEnd
				if trace {
					set = perLayer
				}
				if len(res.Metrics) != len(set) {
					t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(set))
				}
				for _, m := range set {
					got, ok := res.Metrics[m.name]
					switch {
					case !ok:
						t.Errorf("metric %s not printed", m.name)
					case got.Unit != m.unit:
						t.Errorf("metric %s unit %q, want %q", m.name, got.Unit, m.unit)
					case !trace && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.name, got.Value)
					}
				}
				line, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				var keys map[string]json.RawMessage
				if err := json.Unmarshal(line, &keys); err != nil {
					t.Fatal(err)
				}
				if len(keys) != 4 {
					t.Errorf("result line has keys %v, want correct, attempted, failed, metrics", keys)
				}
			})
		}
	}
}

// TestGateRejectsDoctoredFingerprint checks that a run whose
// fingerprint is not the expected one is incorrect and every operation
// counts as failed.
func TestGateRejectsDoctoredFingerprint(t *testing.T) {
	o := shortOptions(t, "macro-private", false)
	res, err := runSim(o, []scenario.Spec{macroSpec(o.seed, o.short)}, "0000000000000000")
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != res.Attempted {
		t.Errorf("doctored fingerprint: correct %v, failed %d of %d; want incorrect with every run failed",
			res.Correct, res.Failed, res.Attempted)
	}
}

// TestPinnedSpecs checks that the full-size specs at the pinned seed
// have the recorded fingerprints: macro-private is vmpbench's
// bench-macro.
func TestPinnedSpecs(t *testing.T) {
	for name, spec := range map[string]func(uint64, bool) scenario.Spec{
		"macro-private":   macroSpec,
		"shared-multibus": sharedSpec,
	} {
		want := pinnedFor(options{workload: name, seed: pinnedSeed})
		got, err := spec(pinnedSeed, false).Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if want == "" || got != want {
			t.Errorf("%s at seed %d: fingerprint %s, want %s", name, pinnedSeed, got, want)
		}
	}
}

// TestContract checks BENCHMARK.json names the workloads and metrics
// the program implements, with the same units.
func TestContract(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var c struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range c.Workloads {
		names = append(names, w.Name)
	}
	var impl []string
	for n := range workloads {
		impl = append(impl, n)
	}
	sort.Strings(names)
	sort.Strings(impl)
	if fmt.Sprint(names) != fmt.Sprint(impl) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, impl)
	}
	for _, set := range []struct {
		what string
		json []entry
		prog []metric
	}{{"end_to_end", c.EndToEnd, endToEnd}, {"per_layer", c.PerLayer, perLayer}} {
		if len(set.json) != len(set.prog) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", set.what, len(set.json), len(set.prog))
			continue
		}
		for i, e := range set.json {
			if e.Name != set.prog[i].name || e.Unit != set.prog[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)",
					set.what, i, e.Name, e.Unit, set.prog[i].name, set.prog[i].unit)
			}
		}
	}
}

// TestClassify pins how CPU samples are charged to modules.
func TestClassify(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"vmp/internal/sim.(*Engine).RunUntil"}, "sim"},
		{[]string{"runtime.memmove", "vmp/internal/copier.(*Copier).run"}, "copier"},
		{[]string{"runtime.lock2", "runtime.chanrecv", "vmp/internal/sim.(*Process).Delay"}, "runtime-sched"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "vmp/internal/trace.Collect"}, "runtime-gc"},
		{[]string{"runtime.futex", "runtime.mstart"}, "runtime-sched"},
		{[]string{"encoding/json.(*decodeState).object", "vmp/internal/serve.(*Server).handleSpec"}, "encoding-json"},
		{[]string{"net/http.(*conn).serve"}, "net-http"},
		{[]string{"slices.SortFunc[go.shape.[]uint8]"}, "other"},
		{nil, "other"},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}
