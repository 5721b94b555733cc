package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"vmp/internal/bus"
	"vmp/internal/core"
	"vmp/internal/obs"
	"vmp/internal/scenario"
	"vmp/internal/trace"
	"vmp/internal/workload"
)

// pinnedSeed is the seed at which the simulation workloads' specs have
// known fingerprints; it is the repository-wide default seed.
const pinnedSeed = 11

// pinned holds those fingerprints. macro-private's is the bench-macro
// fingerprint every BENCH_<n>.json snapshot records.
var pinned = map[string]string{
	"macro-private":   "bf50901a0fe74ea3",
	"shared-multibus": "62c5804839dfe89a",
}

// setupReps is how many untimed warm-up runs a simulation run makes;
// setup_s is their median.
const setupReps = 5

// macroSpec is vmpbench's pinned bench-macro scenario: 4 boards with a
// 64 KB/256 B/4-way cache, 8 MB memory, one bus, the vmp2 protocol, no
// watchdog, and 100k references of the edit profile per board. Every
// board's data is private, so coherence does no work.
func macroSpec(seed uint64, short bool) scenario.Spec {
	refs := 100_000
	if short {
		refs = 2_000
	}
	return scenario.Spec{
		Name: "bench-macro",
		Seed: seed,
		Machine: scenario.MachineSpec{
			Processors: 4,
			CacheSize:  64 << 10,
			PageSize:   256,
			Assoc:      4,
			MemorySize: 8 << 20,
		},
		Workload: scenario.WorkloadSpec{Kind: scenario.WorkloadProfile, Profile: "edit", Refs: refs},
	}
}

// sharedSpec is the macro geometry with 8 boards on two buses (4 per
// bus, under the paper's ~5 processors per bus), the compile profile
// with its kernel frames shared between boards, and the invariant
// watchdog on: writes to shared frames make the monitor, abort/retry,
// inter-bus link and watchdog paths do real work.
func sharedSpec(seed uint64, short bool) scenario.Spec {
	s := macroSpec(seed, short)
	s.Name = "shared"
	s.Machine.Processors = 8
	s.Workload.Profile = "compile"
	s.Workload.Refs = 50_000
	if short {
		s.Workload.Refs = 2_000
	}
	s.Workload.ShareKernel = true
	s.Topology = &scenario.TopologySpec{Buses: 2}
	s.Check = true
	return s
}

// sharedVariants is how many seeds a shared-multibus run cycles
// through. The work behind one seed's 400k references varies by about
// ten percent from seed to seed (it depends on how much the generated
// programs contend for the shared kernel frames), so each run mixes
// several seeds derived from its own to keep run-to-run spread down.
const sharedVariants = 4

func runMacroPrivate(o options) (*result, error) {
	return runSim(o, []scenario.Spec{macroSpec(o.seed, o.short)}, pinnedFor(o))
}

func runSharedMultibus(o options) (*result, error) {
	specs := []scenario.Spec{sharedSpec(o.seed, o.short)}
	for k := 1; k < sharedVariants; k++ {
		specs = append(specs, sharedSpec(splitmix(o.seed+uint64(k)), o.short))
	}
	return runSim(o, specs, pinnedFor(o))
}

// pinnedFor returns the fingerprint the run's first spec must have, or
// "" when none is known for this seed and size.
func pinnedFor(o options) string {
	if o.seed != pinnedSeed || o.short {
		return ""
	}
	return pinned[o.workload]
}

// simGate checks every run of one spec: no invariant violations, the
// pinned fingerprint when one is known, and a fingerprint and summary
// equal to the first run's.
type simGate struct {
	want    string
	fp      string
	summary []byte
	ref     scenario.Summary
	errs    []string
}

// check reports whether one scenario.Run result passes the gate.
func (g *simGate) check(res *scenario.RunResult) bool {
	sum, err := json.Marshal(res.Summary)
	if err != nil {
		return g.fail("encoding summary: %v", err)
	}
	if g.summary == nil {
		g.fp, g.summary, g.ref = res.Fingerprint, sum, res.Summary
	}
	switch {
	case len(res.Violations) > 0 || res.Summary.Violations > 0:
		return g.fail("%d violations, first %q", res.Summary.Violations, append(res.Violations, "")[0])
	case g.want != "" && res.Fingerprint != g.want:
		return g.fail("fingerprint %s, want pinned %s", res.Fingerprint, g.want)
	case res.Fingerprint != g.fp:
		return g.fail("fingerprint %s differs from first run's %s", res.Fingerprint, g.fp)
	case !bytes.Equal(sum, g.summary):
		return g.fail("summary differs from first run's")
	}
	return true
}

// checkTraced compares a traced run's counts with the first untraced
// run's: tracing must not change what is simulated.
func (g *simGate) checkTraced(m *core.Machine, violations []string) bool {
	cs, bs := m.TotalStats()
	ev := m.Eng.Metrics().EventsFired
	switch {
	case len(violations) > 0 || bs.Violations > 0:
		return g.fail("traced run: %d violations", len(violations)+int(bs.Violations))
	case ev != g.ref.EventsFired || cs.Fills != g.ref.Fills || bs.Refs != g.ref.Refs ||
		int64(m.Eng.Now()) != g.ref.SimNs || bs.Retries != g.ref.Retries:
		return g.fail("traced run counts (events %d, fills %d, refs %d, sim ns %d, retries %d) differ from untraced (%d, %d, %d, %d, %d)",
			ev, cs.Fills, bs.Refs, m.Eng.Now(), bs.Retries,
			g.ref.EventsFired, g.ref.Fills, g.ref.Refs, g.ref.SimNs, g.ref.Retries)
	}
	return true
}

func (g *simGate) fail(format string, args ...any) bool {
	if len(g.errs) < 5 {
		g.errs = append(g.errs, fmt.Sprintf(format, args...))
	}
	return false
}

// simCases are the specs of one simulation workload, run in turn, each
// with its own gate.
type simCases struct {
	specs []scenario.Spec
	gates []simGate
}

// runSim measures one simulation workload: untimed warm-up runs (at
// least setupReps, and every spec once), then scenario.Run repeated for
// the run's seconds (untraced), or half of them untraced and half
// through the traced composition. want is the first spec's pinned
// fingerprint, if any.
func runSim(o options, specs []scenario.Spec, want string) (*result, error) {
	c := &simCases{specs: specs, gates: make([]simGate, len(specs))}
	c.gates[0].want = want
	res := &result{values: map[string]float64{}}
	var setups []float64
	for i := 0; i < setupReps || i < len(specs); i++ {
		k := i % len(specs)
		start := time.Now()
		rr, err := scenario.Run(specs[k])
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		c.gates[k].check(rr)
	}
	res.values["setup_s"] = quantile(setups, 0.5)

	window := o.seconds
	if o.trace {
		window /= 2
	}
	loop, err := c.time(window)
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = loop.ops, loop.failed
	v := res.values
	v["sim_refs_per_s"] = quantile(loop.refsPerS, 0.5)
	v["jobs_per_s"] = float64(loop.ops) / loop.elapsed.Seconds()
	v["compute_p50_ms"] = quantile(loop.wallMs, 0.5)
	v["alloc_mb"] = float64(loop.alloc) / float64(loop.ops) / 1e6
	v["ok_share"] = float64(loop.ops-loop.failed) / float64(loop.ops)
	v["bench.compute_samples"] = float64(loop.ops)
	for k, g := range c.gates {
		res.notes = append(res.notes, fmt.Sprintf("spec %s seed %d fingerprint %s", specs[k].Name, specs[k].Seed, g.fp))
	}
	res.notes = append(res.notes,
		fmt.Sprintf("%d setup runs, %d timed runs in %.2f s", len(setups), loop.ops, loop.elapsed.Seconds()),
		tailNote("compute latency", 0.5, loop.ops))

	if o.trace {
		if err := c.traced(o, window, quantile(loop.wallMs, 0.5), res); err != nil {
			return nil, err
		}
	}
	res.Correct = true
	for _, g := range c.gates {
		for _, e := range g.errs {
			res.notes = append(res.notes, "gate: "+e)
			res.Correct = false
		}
	}
	return res, nil
}

// scenarioLoop is what one timed scenario.Run loop measured.
type scenarioLoop struct {
	ops, failed int
	elapsed     time.Duration
	wallMs      []float64
	refsPerS    []float64
	alloc       uint64
}

// time runs the specs in turn, back to back and one at a time, until
// window has passed (at least once).
func (c *simCases) time(window time.Duration) (*scenarioLoop, error) {
	var l scenarioLoop
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for l.ops == 0 || time.Since(start) < window {
		k := l.ops % len(c.specs)
		t := time.Now()
		rr, err := scenario.Run(c.specs[k])
		if err != nil {
			return nil, err
		}
		wall := time.Since(t)
		l.ops++
		if !c.gates[k].check(rr) {
			l.failed++
		}
		l.wallMs = append(l.wallMs, ms(wall))
		l.refsPerS = append(l.refsPerS, float64(rr.Summary.Refs)/wall.Seconds())
	}
	l.elapsed = time.Since(start)
	runtime.ReadMemStats(&after)
	l.alloc = after.TotalAlloc - before.TotalAlloc
	return &l, nil
}

// traced runs the traced half: the scenario composed from its public
// layer calls, one span per layer call, under a CPU profile. The layer
// counters are the first spec's.
func (c *simCases) traced(o options, window time.Duration, untracedMs float64, res *result) error {
	sp := newSpans()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	var first *core.Machine
	var opMs []float64
	start := time.Now()
	for op := 0; op == 0 || time.Since(start) < window; op++ {
		k := op % len(c.specs)
		t := time.Now()
		m, violations, err := composedRun(c.specs[k], op, sp)
		if err != nil {
			pprof.StopCPUProfile()
			return err
		}
		opMs = append(opMs, ms(time.Since(t)))
		res.Attempted++
		if !c.gates[k].checkTraced(m, violations) {
			res.Failed++
		}
		if op == 0 {
			first = m
		}
	}
	pprof.StopCPUProfile()
	self, samples, err := selfShares(prof.Bytes())
	if err != nil {
		return err
	}

	v := res.values
	simLayers(first, v)
	n := float64(len(opMs))
	phases := []string{"workload.generate", "core.build", "vm.prefault", "sim.run", "core.check"}
	covered := 0.0
	for _, ph := range phases {
		v[ph+"_s"] = sp.total(ph).Seconds() / n
		covered += v[ph+"_s"]
	}
	v["workload.generate_alloc_mb"] = float64(sp.alloc("workload.generate")) / n / 1e6
	v["core.build_alloc_mb"] = float64(sp.alloc("core.build")) / n / 1e6
	opS := sp.total("op").Seconds() / n
	v["ledger.op_s"] = opS
	v["ledger.residual_pct"] = 100 * ratio(opS-covered, opS)
	v["trace.overhead_pct"] = 100 * (quantile(opMs, 0.5)/untracedMs - 1)
	v["trace.cpu_samples"] = float64(samples)
	for k, s := range self {
		v["self."+k] = s
	}
	res.notes = append(res.notes, fmt.Sprintf("traced: %d composed runs; phases per op: generate %.4f s, build %.4f s, prefault %.4f s, run %.4f s, check %.4f s of %.4f s",
		len(opMs), v["workload.generate_s"], v["core.build_s"], v["vm.prefault_s"], v["sim.run_s"], v["core.check_s"], opS))
	return sp.write(o, res)
}

// composedRun performs what scenario.Run does for a plain profile
// workload, one public layer call at a time, each under its own span:
// generate every board's references, build the machine, prefault the
// pages, run, and check invariants. It supports only the spec features
// the simulation workloads use.
func composedRun(spec scenario.Spec, op int, sp *spans) (*core.Machine, []string, error) {
	s := spec
	if spec.Topology != nil {
		// Normalize fills the topology in place; leave the caller's alone.
		t := *spec.Topology
		s.Topology = &t
	}
	if err := s.Normalize(); err != nil {
		return nil, nil, err
	}
	if s.Kernel != nil || s.Faults != "" || s.Workload.Kind != scenario.WorkloadProfile || s.Workload.NoPrefault {
		return nil, nil, fmt.Errorf("composed run: spec %s uses features it does not model", s.Name)
	}
	cfg := s.Machine.Config()
	if t := s.Topology; t != nil {
		cfg.Topology = bus.Topology{Buses: t.Buses, BoardsPerBus: t.BoardsPerBus}
	}
	cfg.Protocol = s.Protocol
	cfg.Watchdog = s.Check
	cfg.Obs = &obs.Config{Stream: s.Obs.Stream, RingSize: s.Obs.RingSize}

	var m *core.Machine
	var violations []string
	err := sp.do(op, "op", "", func() error {
		refs := make([][]trace.Ref, s.Machine.Processors)
		if err := sp.do(op, "workload.generate", "op", func() error {
			for i := range refs {
				r, err := workload.Generate(workload.Profile(s.Workload.Profile), s.Seed+uint64(i)*31, s.Workload.Refs)
				if err != nil {
					return err
				}
				// Per-board address space, and a private kernel region per
				// board unless the spec shares it (scenario's convention).
				for j := range r {
					r[j].ASID = uint8(i + 1)
					if !s.Workload.ShareKernel && r[j].VAddr >= workload.KernelCodeBase {
						r[j].VAddr += uint32(i) << 24
					}
				}
				refs[i] = r
			}
			return nil
		}); err != nil {
			return err
		}
		if err := sp.do(op, "core.build", "op", func() error {
			var err error
			m, err = core.NewMachine(cfg)
			return err
		}); err != nil {
			return err
		}
		if err := sp.do(op, "vm.prefault", "op", func() error {
			for _, r := range refs {
				if err := m.PrefaultTrace(r); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		for i, r := range refs {
			m.RunTrace(i, trace.NewSliceSource(r))
		}
		if err := sp.do(op, "sim.run", "op", func() error { m.Run(); return nil }); err != nil {
			return err
		}
		return sp.do(op, "core.check", "op", func() error { violations = m.CheckInvariants(); return nil })
	})
	return m, violations, err
}

// simLayers reads one finished machine's per-layer counters.
func simLayers(m *core.Machine, v map[string]float64) {
	met := m.Eng.Metrics()
	v["sim.events_fired"] = float64(met.EventsFired)
	v["sim.events_scheduled"] = float64(met.EventsScheduled)
	v["sim.host_ns_per_event"] = ratio(float64(met.Wall.Nanoseconds()), float64(met.EventsFired))
	v["sim.sim_ms"] = float64(m.Eng.Now()) / 1e6

	// Board counters are named "board<i>/<counter>"; sum them across
	// boards. Machine-wide counters keep their names.
	c := map[string]float64{}
	for _, e := range m.Eng.Recorder().Snapshot() {
		name := e.Name
		if strings.HasPrefix(name, "board") {
			name = name[strings.IndexByte(name, '/')+1:]
		}
		c[name] += float64(e.Value)
		if strings.HasPrefix(name, "bus/tx/") {
			c["bus/tx"] += float64(e.Value)
		}
	}
	v["copier.transfers"] = c["copier/transfers"]
	v["copier.aborted_ratio"] = ratio(c["copier/aborted"], c["copier/transfers"])
	lookups := c["cache/hits"] + c["cache/misses"]
	v["cache.lookups"] = lookups
	v["cache.miss_ratio"] = ratio(c["cache/misses"], lookups)
	v["cache.fills"] = c["cache/fills"]
	v["bus.transactions"] = c["bus/tx"]
	v["bus.abort_ratio"] = ratio(c["bus/aborts"], c["bus/tx"])
	v["bus.busy_pct"] = 100 * m.Bus.Utilization()
	v["bus.frame_waits"] = c["bus/frame-waits"]
	v["bus.link_crossings"] = c["bus/link/crossings"]
	v["bus.link_filtered_ratio"] = ratio(c["bus/link/filtered-local"], c["bus/link/filtered-local"]+c["bus/link/crossings"])
	v["monitor.checks"] = c["monitor/checks"]
	v["monitor.interrupts"] = c["monitor/interrupts"]
	v["core.retries"] = c["retries"]
	v["core.miss_sim_ns"] = ratio(c["miss-time-ns"], c["cache/fills"])
	v["check.transactions"] = c["check/transactions"]
}
