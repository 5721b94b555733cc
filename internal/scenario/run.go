package scenario

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"strings"

	"vmp/internal/core"
	"vmp/internal/isa"
	"vmp/internal/kernel"
	"vmp/internal/sim"
	"vmp/internal/trace"
	"vmp/internal/workload"
)

// RunResult is the outcome of one scenario run: the normalized spec
// that produced it, the content fingerprint, the serializable summary,
// and (for callers that want to print detailed tables) the machine
// itself.
type RunResult struct {
	Spec        Spec    `json:"spec"`
	Fingerprint string  `json:"fingerprint"`
	Summary     Summary `json:"summary"`
	// Violations holds everything CheckInvariants reported plus any
	// board-observed protocol violations; a surviving run has none.
	Violations []string `json:"violations,omitempty"`
	// Machine is the simulated machine after the run, for detailed
	// reporting (per-board histograms, phase tables, Perfetto export).
	// It is not serialized.
	Machine *core.Machine `json:"-"`
}

// Summary is the machine-readable result of one run. Every field is a
// pure function of the spec (no wall-clock anywhere), so serial and
// parallel executions of the same spec produce byte-identical
// summaries — the property the sweep engine's determinism tests pin.
type Summary struct {
	SimNs        int64   `json:"sim_ns"`
	Refs         uint64  `json:"refs"`
	Fills        uint64  `json:"fills"`
	MissRatioPct float64 `json:"miss_ratio_pct"`
	BusUtilPct   float64 `json:"bus_util_pct"`
	EventsFired  uint64  `json:"events_fired"`
	WriteBacks   uint64  `json:"write_backs"`
	InvalIn      uint64  `json:"invalidations_in"`
	DowngradesIn uint64  `json:"downgrades_in"`
	Retries      uint64  `json:"retries"`
	Recoveries   uint64  `json:"recoveries"`
	Violations   int     `json:"violations"`
	// Sched reports the kernel scheduler's activity when a SchedSpec was
	// attached: total context switches across boards.
	SchedSwitches int `json:"sched_switches,omitempty"`
	// Digest fingerprints the observability event stream (present only
	// when Obs.Stream retained it): byte-identical runs have equal
	// digests.
	Digest string `json:"digest,omitempty"`
	// FaultCounters / CheckCounters mirror the "fault/..." and
	// "check/..." recorder entries.
	FaultCounters map[string]int64 `json:"fault_counters,omitempty"`
	CheckCounters map[string]int64 `json:"check_counters,omitempty"`
	Boards        []BoardSummary   `json:"boards"`
}

// BoardSummary is one board's results.
type BoardSummary struct {
	Refs         uint64  `json:"refs"`
	MissRatioPct float64 `json:"miss_ratio_pct"`
	Performance  float64 `json:"performance"`
	WriteBacks   uint64  `json:"write_backs"`
	InvalIn      uint64  `json:"invalidations_in"`
	DowngradesIn uint64  `json:"downgrades_in"`
	Retries      uint64  `json:"retries"`
	Recoveries   uint64  `json:"recoveries"`
}

// Run executes one scenario: normalize the spec, build the machine,
// attach the workload (and kernel/scheduler when specified), run to
// completion, check invariants and summarize. It is a pure function of
// the spec: the same spec — equivalently, the same fingerprint —
// always produces a byte-identical event stream and summary, however
// many runs proceed concurrently, because each run owns its engine and
// every stochastic stream is seeded from the spec.
func Run(spec Spec) (*RunResult, error) {
	return run(context.Background(), spec, nil, nil)
}

// RunCtx is Run with a cancellation context: a cancelled or expired
// context stops the simulation promptly (unwinding its coroutines) and
// returns the context's error. A context that never fires leaves the
// result byte-identical to Run.
func RunCtx(ctx context.Context, spec Spec) (*RunResult, error) {
	return run(ctx, spec, nil, nil)
}

// PanicError is a simulator fault contained by RunGuarded: the panic
// message, the flight-recorder dump captured at the moment of the
// fault (when the spec had observability on), and the panicking
// process's stack when the fault originated inside a simulated
// process. It is an error, so guarded callers handle faults and
// ordinary spec rejections through one path while still being able to
// errors.As out the dump.
type PanicError struct {
	// Name is the normalized spec name, "" if the fault predates
	// normalization.
	Name string `json:"name,omitempty"`
	// Fingerprint identifies the spec whose run faulted, "" if the
	// fault predates fingerprinting.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Message is the panic value, rendered.
	Message string `json:"message"`
	// Dump is the flight-recorder dump emitted during the faulting run.
	Dump string `json:"dump,omitempty"`
	// Stack is the panicking goroutine's stack when the fault came from
	// a simulated process body.
	Stack string `json:"stack,omitempty"`
}

// Error implements error.
func (e *PanicError) Error() string {
	if e.Name != "" {
		return fmt.Sprintf("scenario %q: simulator fault: %s", e.Name, e.Message)
	}
	return "scenario: simulator fault: " + e.Message
}

// RunGuarded is RunCtx behind a panic-isolating boundary: a simulator
// fault (a livelock hard limit, a protocol assertion) comes back as a
// *PanicError carrying the flight-recorder dump instead of unwinding
// the caller. The fault leaves no goroutines behind — the engine's
// process coroutines are killed before returning — so a long-running
// caller (the vmpd job runner) survives arbitrarily faulty specs.
func RunGuarded(ctx context.Context, spec Spec) (*RunResult, error) {
	return runGuarded(ctx, spec, &runState{})
}

// runGuarded is RunGuarded reporting progress into rs, so a test can
// reach the machine of a faulted run.
func runGuarded(ctx context.Context, spec Spec, rs *runState) (res *RunResult, err error) {
	var dump bytes.Buffer
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if rs.machine != nil {
			rs.machine.Eng.KillProcesses()
		}
		pe := &PanicError{Name: rs.name, Fingerprint: rs.fingerprint, Dump: dump.String()}
		if pp, ok := r.(*sim.ProcessPanic); ok {
			pe.Message = pp.String()
			pe.Stack = string(pp.Stack)
		} else {
			pe.Message = fmt.Sprint(r)
		}
		res, err = nil, pe
	}()
	return run(ctx, spec, &dump, rs)
}

// runState lets run report partial progress back to RunGuarded's
// recover boundary, which cannot see run's locals after a panic.
type runState struct {
	name        string
	fingerprint string
	machine     *core.Machine
}

// run is the shared scenario executor. dumpTo, when non-nil, overrides
// the flight-recorder dump destination (default stderr); rs, when
// non-nil, receives progress markers for the guarded recover path.
func run(ctx context.Context, spec Spec, dumpTo io.Writer, rs *runState) (*RunResult, error) {
	sp, err := spec.clone() // normalize a copy; the caller's spec is left alone
	if err != nil {
		return nil, err
	}
	s := *sp
	if err := s.Normalize(); err != nil {
		return nil, err
	}
	fp, err := s.Fingerprint()
	if err != nil {
		return nil, err
	}
	if rs != nil {
		rs.name, rs.fingerprint = s.Name, fp
	}
	cfg, err := s.config()
	if err != nil {
		return nil, err
	}
	if dumpTo != nil {
		cfg.Obs.DumpTo = dumpTo
	}
	m, err := core.NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	if rs != nil {
		rs.machine = m
	}

	var asmErrs []error
	var sched []kernel.SchedStats
	switch s.Workload.Kind {
	case WorkloadNone:
	case WorkloadAsm:
		if err := attachAsm(m, &s, &asmErrs); err != nil {
			m.Eng.KillProcesses()
			return nil, err
		}
	default:
		sched, err = attachTraces(m, &s)
		if err != nil {
			m.Eng.KillProcesses()
			return nil, err
		}
	}

	if _, err := m.RunCtx(ctx); err != nil {
		return nil, err
	}
	for _, e := range asmErrs {
		if e != nil {
			return nil, fmt.Errorf("scenario %q: asm workload: %w", s.Name, e)
		}
	}

	res := &RunResult{Spec: s, Fingerprint: fp, Machine: m}
	res.Violations = m.CheckInvariants()
	res.Summary = summarize(m, sched)
	res.Summary.Violations += len(res.Violations)
	return res, nil
}

// boardRefs materializes board i's reference stream for a normalized
// profile/trace workload spec: per-board seed derivation (seed + 31*i,
// the vmpsim convention), per-board ASID, and kernel-region slicing
// unless ShareKernel.
func boardRefs(s *Spec, i int) ([]trace.Ref, error) {
	w := s.Workload
	var refs []trace.Ref
	switch w.Kind {
	case WorkloadProfile:
		r, err := workload.Generate(workload.Profile(w.Profile), s.Seed+uint64(i)*31, w.Refs)
		if err != nil {
			return nil, err
		}
		refs = r
	case WorkloadTrace:
		f, err := os.Open(w.TraceFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		br, err := trace.OpenBinary(f)
		if err != nil {
			return nil, err
		}
		refs = trace.Collect(br, w.Refs)
		if err := br.Err(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("scenario: boardRefs on workload kind %q", w.Kind)
	}
	asid := uint8(i + 1)
	shift := kernelSliceShift(s.Machine.Processors)
	for j := range refs {
		refs[j].ASID = asid
		if !w.ShareKernel && refs[j].VAddr >= workload.KernelCodeBase {
			refs[j].VAddr += uint32(i) << shift
		}
	}
	return refs, nil
}

// kernelSliceShift is log2 of the per-board kernel-region stride: 16 MB
// up to 8 boards, halved at each doubling beyond, so the boards' slices
// of the kernel code, data and stack regions neither overlap one
// another nor wrap past the top of the address space.
func kernelSliceShift(boards int) uint {
	shift := uint(24)
	for per := 8; per < boards; per *= 2 {
		shift--
	}
	return shift
}

// attachTraces attaches a trace-driven CPU (or, with a scheduler spec,
// a kernel round-robin scheduler over per-task slices) to every board.
// It returns per-board scheduler stats sinks when scheduling is on.
func attachTraces(m *core.Machine, s *Spec) ([]kernel.SchedStats, error) {
	var k *kernel.Kernel
	var pol kernel.SchedPolicy
	tasksPer := 0
	if ks := s.Kernel; ks != nil {
		var err error
		k, err = kernel.New(m, ks.UncachedPages)
		if err != nil {
			return nil, err
		}
		if ks.Sched != nil {
			tasksPer = ks.Sched.Tasks
			pol = kernel.SchedPolicy{
				Quantum:       ks.Sched.quantum(),
				SwitchInstr:   ks.Sched.SwitchInstr,
				FlushOnSwitch: ks.Sched.FlushOnSwitch,
			}
		}
	}

	stats := make([]kernel.SchedStats, len(m.Boards))
	for i := range m.Boards {
		refs, err := boardRefs(s, i)
		if err != nil {
			return nil, err
		}
		if tasksPer > 0 {
			// Split the board's stream into tasks, each its own address
			// space, and timeslice them through the kernel scheduler. ASIDs
			// are allocated densely per (board, task) so boards never share
			// a user space.
			tasks := make([]kernel.Task, tasksPer)
			per := len(refs) / tasksPer
			for t := 0; t < tasksPer; t++ {
				asid := uint8(1 + i*tasksPer + t)
				lo, hi := t*per, (t+1)*per
				if t == tasksPer-1 {
					hi = len(refs)
				}
				part := make([]trace.Ref, hi-lo)
				copy(part, refs[lo:hi])
				for j := range part {
					part[j].ASID = asid
				}
				tasks[t] = kernel.Task{ASID: asid, Refs: part}
				if !s.Workload.NoPrefault {
					if err := m.PrefaultTrace(part); err != nil {
						return nil, err
					}
				} else if err := m.EnsureSpace(asid); err != nil {
					return nil, err
				}
			}
			i := i
			k.Schedule(i, tasks, pol, func(st kernel.SchedStats) { stats[i] = st })
			continue
		}
		if !s.Workload.NoPrefault {
			if err := m.PrefaultTrace(refs); err != nil {
				return nil, err
			}
		} else if err := m.EnsureSpace(uint8(i + 1)); err != nil {
			return nil, err
		}
		m.RunTrace(i, trace.NewSliceSource(refs))
	}
	if tasksPer > 0 {
		return stats, nil
	}
	return nil, nil
}

// attachAsm assembles the workload program once and executes it on
// every board through the full cache/miss-handler path, each board in
// its own address space.
func attachAsm(m *core.Machine, s *Spec, errs *[]error) error {
	prog, err := isa.Assemble(s.Workload.Asm)
	if err != nil {
		return err
	}
	*errs = make([]error, len(m.Boards))
	for i := range m.Boards {
		i := i
		cfg := isa.RunConfig{Base: s.Workload.AsmBase}
		if s.Workload.Refs > 0 {
			cfg.MaxSteps = uint64(s.Workload.Refs)
		}
		if err := isa.Run(m, i, uint8(i+1), prog, cfg, func(_ isa.Result, err error) {
			(*errs)[i] = err
		}); err != nil {
			return err
		}
	}
	return nil
}

// summarize collects the serializable run summary from a finished
// machine.
func summarize(m *core.Machine, sched []kernel.SchedStats) Summary {
	cs, bs := m.TotalStats()
	sum := Summary{
		SimNs:        int64(m.Eng.Now()),
		Refs:         bs.Refs,
		Fills:        cs.Fills,
		EventsFired:  m.Eng.Metrics().EventsFired,
		WriteBacks:   bs.WriteBacks,
		InvalIn:      bs.InvalidationsIn,
		DowngradesIn: bs.DowngradesIn,
		Retries:      bs.Retries,
		Recoveries:   bs.Recoveries,
		Violations:   int(bs.Violations),
	}
	if bs.Refs > 0 {
		sum.MissRatioPct = 100 * float64(cs.Fills) / float64(bs.Refs)
	}
	sum.BusUtilPct = 100 * m.Bus.Utilization()
	for _, st := range sched {
		sum.SchedSwitches += st.Switches
	}
	if sink := m.Sink(); sink != nil && sink.Stream() != nil {
		sum.Digest = fmt.Sprintf("%016x", sink.Digest())
	}
	for _, met := range m.Eng.Recorder().Snapshot() {
		switch {
		case strings.HasPrefix(met.Name, "fault/"):
			if sum.FaultCounters == nil {
				sum.FaultCounters = make(map[string]int64)
			}
			sum.FaultCounters[strings.TrimPrefix(met.Name, "fault/")] = met.Value
		case strings.HasPrefix(met.Name, "check/"):
			if sum.CheckCounters == nil {
				sum.CheckCounters = make(map[string]int64)
			}
			sum.CheckCounters[strings.TrimPrefix(met.Name, "check/")] = met.Value
		}
	}
	for i, b := range m.Boards {
		bcs := b.Cache.Stats()
		bbs := b.Stats()
		board := BoardSummary{
			Refs:         bbs.Refs,
			Performance:  m.Performance(i),
			WriteBacks:   bbs.WriteBacks,
			InvalIn:      bbs.InvalidationsIn,
			DowngradesIn: bbs.DowngradesIn,
			Retries:      bbs.Retries,
			Recoveries:   bbs.Recoveries,
		}
		if bbs.Refs > 0 {
			board.MissRatioPct = 100 * float64(bcs.Fills) / float64(bbs.Refs)
		}
		sum.Boards = append(sum.Boards, board)
	}
	return sum
}

// SimTime returns the summary's simulated time.
func (s Summary) SimTime() sim.Time { return sim.Time(s.SimNs) }
