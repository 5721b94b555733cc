// Command perfbench is the repository benchmark: it runs one named
// workload through the simulator's public entry points for a fixed
// number of wall-clock seconds, checks every result, and prints the
// workload's metrics. The last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": 31, "failed": 0, "metrics": {"sim_refs_per_s": {"value": 7.1e5, "unit": "1/s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end set (endToEnd below);
// with -trace 1 a separate traced run reports the per-layer set
// (perLayer). See README.md for why each workload exists.
//
// Usage:
//
//	perfbench -workload macro-private -seed 11 -seconds 36 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// gomaxprocs is the number of OS threads the benchmark lets Go run at
// once. It is fixed, not taken from the host, so runs on hosts with
// different core counts load the program the same way.
const gomaxprocs = 2

// metric names one reported figure and its unit.
type metric struct{ name, unit string }

// endToEnd is what a user of the simulator or of vmpd sees, printed by
// every untraced run on every workload.
var endToEnd = []metric{
	{"sim_refs_per_s", "1/s"},
	{"jobs_per_s", "1/s"},
	{"compute_p50_ms", "ms"},
	{"alloc_mb", "MB"},
	{"setup_s", "s"},
	{"ok_share", "ratio"},
}

// perLayer is the traced run's ledger: per-layer counts, phase spans,
// host self time by module, and the tracing overhead. Layers a
// workload does not drive read 0.
var perLayer = []metric{
	{"sim.events_fired", "count"},
	{"sim.events_scheduled", "count"},
	{"sim.host_ns_per_event", "ns"},
	{"sim.run_s", "s"},
	{"sim.sim_ms", "ms"},
	{"copier.transfers", "count"},
	{"copier.aborted_ratio", "ratio"},
	{"workload.generate_s", "s"},
	{"workload.generate_alloc_mb", "MB"},
	{"core.build_s", "s"},
	{"core.build_alloc_mb", "MB"},
	{"vm.prefault_s", "s"},
	{"core.check_s", "s"},
	{"cache.lookups", "count"},
	{"cache.miss_ratio", "ratio"},
	{"cache.fills", "count"},
	{"bus.transactions", "count"},
	{"bus.abort_ratio", "ratio"},
	{"bus.busy_pct", "%"},
	{"bus.frame_waits", "count"},
	{"bus.link_crossings", "count"},
	{"bus.link_filtered_ratio", "ratio"},
	{"monitor.checks", "count"},
	{"monitor.interrupts", "count"},
	{"core.retries", "count"},
	{"core.miss_sim_ns", "ns"},
	{"check.transactions", "count"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.run_ms", "ms"},
	{"serve.store_put_ms", "ms"},
	{"serve.computed_cells", "count"},
	{"serve.cache_hit_cells", "count"},
	{"serve.shed", "count"},
	{"serve.determinism_mismatches", "count"},
	{"serve.compute_p95_ms", "ms"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.hit_p95_ms", "ms"},
	{"serve.hit_samples", "count"},
	{"bench.compute_samples", "count"},
	{"ledger.op_s", "s"},
	{"ledger.residual_pct", "%"},
	{"trace.overhead_pct", "%"},
	{"trace.cpu_samples", "count"},
	{"self.sim", "%"},
	{"self.runtime-sched", "%"},
	{"self.runtime-gc", "%"},
	{"self.cache", "%"},
	{"self.bus", "%"},
	{"self.monitor", "%"},
	{"self.core", "%"},
	{"self.copier", "%"},
	{"self.workload", "%"},
	{"self.memory", "%"},
	{"self.serve", "%"},
	{"self.net-http", "%"},
	{"self.encoding-json", "%"},
	{"self.other", "%"},
}

// options is one invocation's settings.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	// short shrinks every input to a tiny size, for the benchmark's own
	// tests.
	short bool
	// workDir holds everything the run writes (vmpd stores, span
	// files).
	workDir string
}

// result is the benchmark's verdict for one run.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]measure `json:"metrics"`
	// notes are human-readable lines printed before the JSON line:
	// sample counts, the failed share, GOMAXPROCS.
	notes []string
	// values is every figure the run produced, keyed by metric name;
	// the printed set is filtered from it.
	values map[string]float64
}

// measure is one printed metric.
type measure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*result, error){
	"macro-private":   runMacroPrivate,
	"shared-multibus": runSharedMultibus,
	"vmpd-mix":        runVMPDMix,
}

func main() {
	var o options
	var seconds int
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: macro-private, shared-multibus or vmpd-mix")
	flag.Uint64Var(&o.seed, "seed", 11, "workload seed")
	flag.IntVar(&seconds, "seconds", 36, "how long the timed phase runs")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced run and prints the per-layer metrics")
	flag.StringVar(&o.workDir, "workdir", ".bench_build", "directory for files the run writes")
	flag.Parse()
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = traceFlag == 1
	if flag.NArg() > 0 || seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(gomaxprocs)
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, n := range res.notes {
		fmt.Println(n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload and fills in the printed metric set.
func run(o options) (*result, error) {
	fn, ok := workloads[o.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown workload %q (known: %v)", o.workload, names)
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	res, err := fn(o)
	if err != nil {
		return nil, err
	}
	set := endToEnd
	if o.trace {
		set = perLayer
	}
	res.Metrics = make(map[string]measure, len(set))
	for _, m := range set {
		v := res.values[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.name, v)
		}
		res.Metrics[m.name] = measure{Value: v, Unit: m.unit}
		res.notes = append(res.notes, fmt.Sprintf("%-30s %16.6f %s", m.name, v, m.unit))
	}
	if res.Attempted > 0 {
		res.notes = append(res.notes, fmt.Sprintf("%-30s %16.6f ratio (%d of %d operations)",
			"failed_share", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted))
	}
	res.notes = append(res.notes, fmt.Sprintf("workload %s seed %d GOMAXPROCS %d trace %v correct %v",
		o.workload, o.seed, runtime.GOMAXPROCS(0), o.trace, res.Correct))
	return res, nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile returns the q-quantile of xs, interpolating linearly between
// the closest ranks (so q = 0.5 is the usual median). xs need not be
// sorted and is not modified. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// tailNote states a percentile's sample count and whether at least ten
// samples lie beyond it.
func tailNote(what string, q float64, n int) string {
	beyond := int(float64(n) * (1 - q))
	ok := "ok"
	if beyond < 10 {
		ok = "fewer than 10 beyond it"
	}
	return fmt.Sprintf("%s p%.0f from %d samples, %d beyond (%s)", what, q*100, n, beyond, ok)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
