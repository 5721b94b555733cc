package experiments

import (
	"fmt"
	"strings"
	"time"

	"vmp/internal/core"
	"vmp/internal/scenario"
	"vmp/internal/sim"
)

// engineTrack collects every engine one experiment run constructs, so
// the run layer can aggregate engine metrics after the runner returns.
// It is run-confined: a fresh tracker is made per runOne call and only
// that experiment's helpers append to it.
type engineTrack struct {
	engines []*sim.Engine
}

func (t *engineTrack) add(e *sim.Engine) {
	if t != nil {
		t.engines = append(t.engines, e)
	}
}

// Metrics aggregates engine activity across every engine one
// experiment run built (sweeps build a machine per configuration).
type Metrics struct {
	Wall            time.Duration // wall-clock time for the whole run
	SimTime         sim.Time      // summed simulated time across engines
	EventsFired     uint64
	EventsScheduled uint64
	MaxQueueDepth   int // high-water event-queue depth over all engines
	Engines         int // engines (machines) the run constructed

	// FaultCounters and CheckCounters sum the fault-injection and
	// invariant-watchdog counters ("fault/..." and "check/..." in each
	// engine's recorder) across every machine the run built, so
	// `vmpbench -json` can report what the fault layer actually did and
	// what the watchdog saw. Nil when no such counters were registered.
	FaultCounters map[string]int64
	CheckCounters map[string]int64
}

func (t *engineTrack) metrics(wall time.Duration) Metrics {
	m := Metrics{Wall: wall}
	for _, e := range t.engines {
		em := e.Metrics()
		m.SimTime += e.Now()
		m.EventsFired += em.EventsFired
		m.EventsScheduled += em.EventsScheduled
		if em.MaxQueueDepth > m.MaxQueueDepth {
			m.MaxQueueDepth = em.MaxQueueDepth
		}
		m.Engines++
		for _, met := range e.Recorder().Snapshot() {
			switch {
			case strings.HasPrefix(met.Name, "fault/"):
				if m.FaultCounters == nil {
					m.FaultCounters = make(map[string]int64)
				}
				m.FaultCounters[strings.TrimPrefix(met.Name, "fault/")] += met.Value
			case strings.HasPrefix(met.Name, "check/"):
				if m.CheckCounters == nil {
					m.CheckCounters = make(map[string]int64)
				}
				m.CheckCounters[strings.TrimPrefix(met.Name, "check/")] += met.Value
			}
		}
	}
	return m
}

// SimNsPerWallMs reports simulated nanoseconds advanced per wall-clock
// millisecond — the run layer's headline throughput figure.
func (m Metrics) SimNsPerWallMs() float64 {
	ms := float64(m.Wall) / float64(time.Millisecond)
	if ms <= 0 {
		return 0
	}
	return float64(m.SimTime) / ms
}

// engine builds a bare simulation engine, registered with the run's
// tracker. Experiments that need an engine without a full machine
// (e.g. the copier ablation) must use this instead of sim.NewEngine so
// their activity shows up in the run metrics.
func (o Options) engine() *sim.Engine {
	eng := sim.NewEngine()
	o.track.add(eng)
	return eng
}

// machine builds a core.Machine from an explicit configuration,
// registered with the run's tracker. The run-level fault plan and
// watchdog setting apply to every machine whose config does not choose
// its own, so `vmpbench -faults ...` stresses each experiment's
// machines uniformly.
func (o Options) machine(cfg core.Config) (*core.Machine, error) {
	if cfg.Faults == nil && o.Faults != nil && o.Faults.Enabled() {
		cfg.Faults = o.Faults
		cfg.FaultSeed = o.Seed
	}
	cfg.Watchdog = cfg.Watchdog || o.Check
	m, err := core.NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	o.track.add(m.Eng)
	return m, nil
}

// run executes one experiment cell through scenario.Run under the
// run's seed, fault plan and watchdog setting, registers the machine's
// engine with the run's tracker, and reports any invariant violation as
// an error. It returns the finished machine.
func (o Options) run(spec scenario.Spec) (*core.Machine, error) {
	spec.Seed = o.Seed
	if o.Faults != nil && o.Faults.Enabled() {
		spec.Faults = o.Faults.String()
	}
	spec.Check = spec.Check || o.Check
	res, err := scenario.Run(spec)
	if err != nil {
		return nil, err
	}
	o.track.add(res.Machine.Eng)
	if len(res.Violations) != 0 {
		return nil, fmt.Errorf("invariants: %v", res.Violations)
	}
	return res.Machine, nil
}

// newMachine builds the experiments' standard machine shape: procs
// processors, a cacheSize-byte cache of 256-byte pages, 4-way, and 8 MB
// of main memory. The shape is defined once, as a scenario.MachineSpec
// (scenarios.go), so the declarative grids and the imperative runners
// agree on it.
func (o Options) newMachine(procs, cacheSize int) (*core.Machine, error) {
	return o.machine(machineSpec(procs, cacheSize).Config())
}
