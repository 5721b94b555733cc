package experiments

import (
	"fmt"

	"vmp/internal/cache"
	"vmp/internal/core"
	"vmp/internal/fault"
	"vmp/internal/sim"
	"vmp/internal/stats"
)

// faultScenario is one cell of the fault-rate grid: a human name, the
// fault plan (internal/fault textual form; "none" leaves only the
// watchdog armed) and the "fault/..." counters it must have incremented
// for the run to count as a real stress (a scenario that injects
// nothing proves nothing).
type faultScenario struct {
	name  string
	plan  string
	fired []string
}

// FaultSweep runs a sharing-heavy survival workload under a grid of
// fault plans and verifies after each cell that the protocol absorbed
// the injected faults: the invariant watchdog stays silent, every word
// holds its owner's last write, and a TAS-guarded counter is exact. The
// table reports what each recovery path had to do. Any violation or
// lost update is an error, so the benchmark harness (and the CI fault
// matrix) fails loudly instead of averaging a corruption away.
func FaultSweep(o Options) (*Result, error) {
	opsPerCPU := 400
	if o.Quick {
		opsPerCPU = 120
	}
	const procs = 4
	const pageSize = 256
	const pages = 8

	grid := []faultScenario{
		{name: "none", plan: "none"},
		{name: "aborts", plan: "abort=0.15", fired: []string{"fault/injected-aborts"}},
		{name: "xfer-errors", plan: "abort=0.05,copy=0.1", fired: []string{"fault/transfer-errors"}},
		{name: "fifo-storms", plan: "fifo=2,storm=0.25,stormmax=4", fired: []string{"fault/storm-words"}},
		{name: "chaos", plan: "abort=0.1,copy=0.05,fifo=2,storm=0.15,stormmax=4,flip=0.05",
			fired: []string{"fault/injected-aborts", "fault/transfer-errors", "fault/storm-words", "fault/table-flips"}},
	}

	t := stats.NewTable("Protocol survival under injected faults (4 CPUs, shared pages + TAS lock)",
		"Scenario", "Retries", "WB Retries", "Copier Reissues", "FIFO Recoveries", "Flips Det.", "Starved", "Elapsed (ms)")

	for si, sc := range grid {
		plan, err := fault.Parse(sc.plan)
		if err != nil {
			return nil, fmt.Errorf("fault-sweep %q: %w", sc.name, err)
		}
		m, err := o.machine(core.Config{
			Processors: procs,
			Cache:      cache.Geometry(64<<10, pageSize, 4),
			MemorySize: 8 << 20,
			Faults:     plan,
			FaultSeed:  o.Seed + uint64(si)*1031,
			Watchdog:   true,
		})
		if err != nil {
			return nil, err
		}
		if err := m.EnsureSpace(1); err != nil {
			return nil, err
		}

		// Shared data pages (one word per CPU in each — deliberate false
		// sharing), plus a TAS lock guarding an exact counter. No
		// notification locks: the fault plan may plant phantom entries,
		// and an aborted Notify has no retry path (see DESIGN.md).
		base := uint32(0x100000)
		var pageAddrs []uint32
		for i := 0; i < pages; i++ {
			pageAddrs = append(pageAddrs, base+uint32(i)*pageSize)
		}
		lockVA := base + uint32(pages)*pageSize
		counterVA := base + uint32(pages+1)*pageSize
		if err := m.Prefault(1, append(append([]uint32{}, pageAddrs...), lockVA, counterVA)); err != nil {
			return nil, err
		}

		lastWrite := make([]map[uint32]uint32, procs)
		critSections := make([]int, procs)
		for i := 0; i < procs; i++ {
			i := i
			lastWrite[i] = make(map[uint32]uint32)
			rnd := sim.NewRand(o.Seed*7919 + uint64(si)*613 + uint64(i))
			m.RunProgram(i, func(c *core.CPU) {
				c.SetASID(1)
				c.Idle(sim.Time(i) * sim.Microsecond)
				for op := 0; op < opsPerCPU; op++ {
					switch rnd.Intn(8) {
					case 0, 1, 2: // write my word in a random shared page
						pg := rnd.Intn(pages)
						va := pageAddrs[pg] + uint32(i)*4
						v := uint32(rnd.Uint64())
						c.Store(va, v)
						lastWrite[i][va] = v
					case 3, 4: // read anyone's word
						_ = c.Load(pageAddrs[rnd.Intn(pages)] + uint32(rnd.Intn(procs))*4)
					case 5: // TAS critical section around the shared counter
						for c.TAS(lockVA) != 0 {
							c.Compute(5 + rnd.Intn(20))
						}
						v := c.Load(counterVA)
						c.Compute(rnd.Intn(30))
						c.Store(counterVA, v+1)
						critSections[i]++
						c.Store(lockVA, 0)
					case 6: // think
						c.Compute(rnd.Intn(150))
					case 7: // kernel-style maintenance
						w, err := m.VM.Translate(1, pageAddrs[rnd.Intn(pages)], false, false)
						if err != nil {
							continue
						}
						if rnd.Bool(0.7) {
							c.FlushPage(w.PAddr)
						} else {
							c.ProtectRegion(w.PAddr, pageSize)
							c.Idle(sim.Time(rnd.Intn(8)) * sim.Microsecond)
							c.UnprotectRegion(w.PAddr, pageSize)
						}
					}
				}
			})
		}
		m.Run()

		// Oracle 1: the watchdog and the post-run consistency checks.
		if v := m.CheckInvariants(); len(v) != 0 {
			return nil, fmt.Errorf("fault-sweep %q: invariant violations: %v", sc.name, v)
		}
		_, bs := m.TotalStats()
		if bs.Violations != 0 {
			return nil, fmt.Errorf("fault-sweep %q: %d protocol violations", sc.name, bs.Violations)
		}
		// Oracle 2: every word holds its owner's last write.
		for i := 0; i < procs; i++ {
			for va, want := range lastWrite[i] {
				w, err := m.VM.Translate(1, va, false, false)
				if err != nil {
					return nil, fmt.Errorf("fault-sweep %q: translate %#x: %v", sc.name, va, err)
				}
				if got := m.Mem.ReadWord(w.PAddr); got != want {
					return nil, fmt.Errorf("fault-sweep %q: cpu %d word %#x = %#x, want %#x (lost update)",
						sc.name, i, va, got, want)
				}
			}
		}
		// Oracle 3: the guarded counter is exact.
		total := 0
		for _, n := range critSections {
			total += n
		}
		w, err := m.VM.Translate(1, counterVA, false, false)
		if err != nil {
			return nil, err
		}
		if got := m.Mem.ReadWord(w.PAddr); got != uint32(total) {
			return nil, fmt.Errorf("fault-sweep %q: guarded counter %d, want %d", sc.name, got, total)
		}
		// The scenario must actually have injected what it promised.
		rec := m.Eng.Recorder()
		for _, name := range sc.fired {
			if rec.Value(name) == 0 {
				return nil, fmt.Errorf("fault-sweep %q: %s = 0; the scenario injected nothing", sc.name, name)
			}
		}

		var reissues int64
		for i := 0; i < procs; i++ {
			reissues += rec.Value(fmt.Sprintf("board%d/copier/reissues", i))
		}
		t.Add(sc.name, bs.Retries, bs.WriteBackRetries, reissues, bs.Recoveries,
			rec.Value("check/table-corruptions-detected"), rec.Value("check/starvation-events"),
			float64(m.Eng.Now())/float64(sim.Millisecond))
	}
	t.Note = "every cell passed the watchdog, last-write and guarded-counter oracles; columns count recovery work"
	return &Result{
		ID:    "fault-sweep",
		Title: "deterministic fault injection across the recovery grid",
		Table: t,
		PaperNote: "Sections 3.1-3.4 describe the retry, re-issue and FIFO-overflow recovery paths; " +
			"the paper asserts they make the protocol robust but reports no fault experiment",
	}, nil
}
