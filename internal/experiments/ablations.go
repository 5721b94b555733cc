package experiments

import (
	"fmt"

	"vmp/internal/baseline"
	"vmp/internal/bus"
	"vmp/internal/cache"
	"vmp/internal/copier"
	"vmp/internal/core"
	"vmp/internal/kernel"
	"vmp/internal/queuing"
	"vmp/internal/sim"
	"vmp/internal/stats"
	"vmp/internal/trace"
	"vmp/internal/vm"
	"vmp/internal/workload"
)

// AblationLocks compares conventional test-and-set spinning on cached
// memory against the paper's notification locks (Section 5.4): total
// completion time, bus utilization and consistency events for the same
// critical-section workload.
func AblationLocks(o Options) (*Result, error) {
	iters := 40
	if o.Quick {
		iters = 12
	}
	type outcome struct {
		elapsed    sim.Time
		busUtil    float64
		consEvents uint64
		aborts     uint64
	}
	run := func(useNotify bool, procs int) (outcome, error) {
		m, err := o.newMachine(procs, 64<<10)
		if err != nil {
			return outcome{}, err
		}
		k, err := kernel.New(m, 2)
		if err != nil {
			return outcome{}, err
		}
		m.EnsureSpace(1)
		m.Prefault(1, []uint32{0x1000, 0x2000})
		var acquire, release func(c *core.CPU)
		if useNotify {
			l, err := k.NewNotifyLock()
			if err != nil {
				return outcome{}, err
			}
			acquire, release = l.Acquire, l.Release
		} else {
			l := k.NewSpinLock(1, 0x1000)
			acquire, release = l.Acquire, l.Release
		}
		for i := 0; i < procs; i++ {
			i := i
			m.RunProgram(i, func(c *core.CPU) {
				c.SetASID(1)
				c.Idle(sim.Time(i) * sim.Microsecond)
				for n := 0; n < iters; n++ {
					acquire(c)
					v := c.Load(0x2000)
					c.Compute(100)
					c.Store(0x2000, v+1)
					release(c)
					c.Compute(30)
				}
			})
		}
		end := m.Run()
		if v := m.CheckInvariants(); len(v) != 0 {
			return outcome{}, fmt.Errorf("invariants: %v", v)
		}
		w, _ := m.VM.Translate(1, 0x2000, false, false)
		if got := m.Mem.ReadWord(w.PAddr); got != uint32(procs*iters) {
			return outcome{}, fmt.Errorf("lost updates: counter %d, want %d", got, procs*iters)
		}
		_, bs := m.TotalStats()
		return outcome{
			elapsed:    end,
			busUtil:    m.Bus.Utilization(),
			consEvents: bs.InvalidationsIn + bs.DowngradesIn,
			aborts:     bs.Retries,
		}, nil
	}

	t := stats.NewTable("Locks: test-and-set spinning vs notification (Section 5.4)",
		"Processors", "Lock", "Elapsed (µs)", "Bus Util (%)", "Invalidations+Downgrades", "Aborted Fills")
	for _, procs := range []int{2, 4} {
		for _, notify := range []bool{false, true} {
			oc, err := run(notify, procs)
			if err != nil {
				return nil, err
			}
			name := "spin (cached TAS)"
			if notify {
				name = "notify (uncached)"
			}
			t.Add(procs, name, oc.elapsed.Micros(), 100*oc.busUtil, oc.consEvents, oc.aborts)
		}
	}
	return &Result{
		ID:    "locks",
		Title: "test-and-set spinning vs notification locks",
		Table: t,
		PaperNote: "paper warns that straightforward test-and-set on cached pages causes " +
			"\"enormous consistency overhead\"; notification locks avoid the thrashing",
	}, nil
}

// AblationProtocols compares bus traffic of the VMP ownership protocol
// against snoopy write-invalidate, write-broadcast and the MIPS-X
// compiler-flush scheme on canonical sharing patterns (Section 6).
func AblationProtocols(o Options) (*Result, error) {
	rounds := 150
	if o.Quick {
		rounds = 40
	}
	const procs = 4
	patterns := []struct {
		name    string
		streams [][]trace.Ref
	}{
		{"read-sharing", workload.ReadSharing(procs, 0x10000, 512, rounds)},
		{"ping-pong", workload.PingPong(procs, 0x20000, rounds)},
		{"migratory", workload.MigratoryStreams(procs, 0x30000, 8, rounds)},
		{"false-sharing", workload.FalseSharing(procs, 0x40000, 256, rounds)},
	}

	t := stats.NewTable("Protocol bus traffic (per 1000 references)",
		"Pattern", "Scheme", "Bus KB", "Transactions", "Bus Time (µs)")

	for _, pat := range patterns {
		totalRefs := 0
		for _, s := range pat.streams {
			totalRefs += len(s)
		}
		scale := 1000 / float64(totalRefs)

		// VMP: full machine.
		vmpStats, err := runVMPStreams(o, pat.streams)
		if err != nil {
			return nil, err
		}
		t.Add(pat.name, "VMP ownership", float64(vmpStats.BytesMoved)/1024*scale,
			float64(vmpTxCount(vmpStats))*scale, vmpStats.BusyTime.Micros()*scale)

		// Snoopy baselines.
		for _, proto := range []baseline.Protocol{baseline.WriteInvalidate, baseline.WriteBroadcast} {
			st := baseline.NewSystem(procs, baseline.DefaultConfig(proto)).Run(cloneStreams(pat.streams))
			t.Add(pat.name, proto.String(), float64(st.BusBytes)/1024*scale,
				float64(st.Transactions)*scale, st.BusTime.Micros()*scale)
		}

		// MIPS-X compiler flush: everything in these patterns is shared.
		mx := baseline.NewMIPSX(procs, baseline.DefaultConfig(baseline.WriteInvalidate),
			func(uint32) bool { return true })
		mxStats := mx.Run(cloneStreams(pat.streams), 16)
		t.Add(pat.name, "MIPS-X flush", float64(mxStats.BusBytes)/1024*scale,
			float64(mxStats.Transactions)*scale, mxStats.BusTime.Micros()*scale)
	}
	return &Result{
		ID:    "protocols",
		Title: "VMP ownership protocol vs Section 6 alternatives",
		Table: t,
		PaperNote: "paper (qualitative): write-broadcast needs a word broadcast per shared update " +
			"and small lines; MIPS-X flushes in anticipation; VMP flushes on demand with large pages",
	}, nil
}

func cloneStreams(in [][]trace.Ref) [][]trace.Ref {
	out := make([][]trace.Ref, len(in))
	for i, s := range in {
		out[i] = append([]trace.Ref(nil), s...)
	}
	return out
}

func vmpTxCount(s bus.Stats) uint64 {
	var n uint64
	for _, v := range s.Transactions {
		n += v
	}
	return n
}

// replayStreams prefaults every page the streams touch and attaches
// stream i to board i as a trace-driven CPU.
func replayStreams(m *core.Machine, streams [][]trace.Ref) error {
	for _, s := range streams {
		if err := m.PrefaultTrace(s); err != nil {
			return err
		}
	}
	for i, s := range streams {
		m.RunTrace(i, trace.NewSliceSource(s))
	}
	return nil
}

// runVMPStreams replays per-processor streams on a full VMP machine and
// returns the bus statistics.
func runVMPStreams(o Options, streams [][]trace.Ref) (bus.Stats, error) {
	m, err := o.newMachine(len(streams), 64<<10)
	if err != nil {
		return bus.Stats{}, err
	}
	if err := replayStreams(m, streams); err != nil {
		return bus.Stats{}, err
	}
	m.Run()
	if v := m.CheckInvariants(); len(v) != 0 {
		return bus.Stats{}, fmt.Errorf("invariants: %v", v)
	}
	return m.Bus.Stats(), nil
}

// AblationCopier measures the block copier against a CPU copy loop
// (Section 2: "the block copier should transfer data at 40 MB/s ... a
// simple copy loop using the processor can achieve less than 5 MB/s").
func AblationCopier(o Options) (*Result, error) {
	blocks := 128
	if o.Quick {
		blocks = 32
	}
	t := stats.NewTable("Block copier vs CPU copy loop",
		"Mover", "Page Size", "Bandwidth (MB/s)", "Bus Occupancy (%)")
	for _, ps := range []int{128, 256, 512} {
		eng := o.engine()
		b := bus.New(eng)
		cop := copier.New(eng, b, 0)
		var blockElapsed, cpuElapsed sim.Time
		var blockBus, cpuBus sim.Time
		eng.Spawn("cpu", func(p *sim.Process) {
			start := p.Now()
			busStart := b.Stats().BusyTime
			for i := 0; i < blocks; i++ {
				cop.Run(p, bus.Transaction{Op: bus.ReadShared, PAddr: uint32(i * ps), Bytes: ps})
			}
			blockElapsed = p.Now() - start
			blockBus = b.Stats().BusyTime - busStart

			start = p.Now()
			busStart = b.Stats().BusyTime
			for i := 0; i < blocks; i++ {
				cop.CopyByCPU(p, uint32(i*ps), ps, copier.DefaultCPUCopyTiming())
			}
			cpuElapsed = p.Now() - start
			cpuBus = b.Stats().BusyTime - busStart
		})
		eng.Run()
		cop.Close()
		bytes := float64(blocks * ps)
		t.Add("block copier", ps, bytes/blockElapsed.Seconds()/1e6, 100*float64(blockBus)/float64(blockElapsed))
		t.Add("CPU loop", ps, bytes/cpuElapsed.Seconds()/1e6, 100*float64(cpuBus)/float64(cpuElapsed))
	}
	return &Result{
		ID:        "copier",
		Title:     "block copier vs CPU copy loop bandwidth",
		Table:     t,
		PaperNote: "paper: block copier ~40 MB/s at 100% VMEbus utilization; CPU loop < 5 MB/s",
	}, nil
}

// AblationReadPrivate measures the Section 5.4 unshared-region hint:
// read misses fetched read-private avoid the later assert-ownership on
// first write.
func AblationReadPrivate(o Options) (*Result, error) {
	pages := 200
	if o.Quick {
		pages = 60
	}
	run := func(hint bool) (elapsed sim.Time, asserts uint64, err error) {
		m, err := o.newMachine(1, 128<<10)
		if err != nil {
			return 0, 0, err
		}
		m.EnsureSpace(1)
		if hint {
			m.Boards[0].SetReadPrivateOnRead(func(uint8, uint32) bool { return true })
		}
		var addrs []uint32
		for i := 0; i < pages; i++ {
			addrs = append(addrs, 0x100000+uint32(i)*256)
		}
		m.Prefault(1, addrs)
		m.RunProgram(0, func(c *core.CPU) {
			c.SetASID(1)
			// Read-then-write over private data: the pattern the hint
			// is designed for.
			for _, a := range addrs {
				v := c.Load(a)
				c.Store(a, v+1)
			}
		})
		end := m.Run()
		if v := m.CheckInvariants(); len(v) != 0 {
			return 0, 0, fmt.Errorf("invariants: %v", v)
		}
		return end, m.Bus.Stats().Transactions[bus.AssertOwnership], nil
	}
	t := stats.NewTable("Read-private-on-read hint (Section 5.4)",
		"Hint", "Elapsed (µs)", "Assert-Ownership Transactions")
	off, offAsserts, err := run(false)
	if err != nil {
		return nil, err
	}
	on, onAsserts, err := run(true)
	if err != nil {
		return nil, err
	}
	t.Add("off", off.Micros(), offAsserts)
	t.Add("on", on.Micros(), onAsserts)
	t.Note = fmt.Sprintf("speedup %.2fx over %d read-then-write pages", float64(off)/float64(on), pages)
	return &Result{
		ID:        "readprivate",
		Title:     "read-private on read misses to unshared regions",
		Table:     t,
		PaperNote: "paper: eliminates the need to later do an assert-ownership on the first write",
	}, nil
}

// AblationScaling runs 1-8 processors with independent ATUM-like
// traces, measuring per-processor performance and bus utilization —
// the Section 5.3 question of how many processors one bus carries.
func AblationScaling(o Options) (*Result, error) {
	// The experiment runs its grid's cells: one machine per processor
	// count, each board an independent edit trace in its own address
	// space with a private slice of the kernel region (per-CPU kernel
	// stacks and data — otherwise every CPU write-shares the same
	// physical kernel frames, which is not the independent-workload
	// question Section 5.3 asks).
	cells, err := scalingGrid(o).Expand()
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Scaling: independent workloads on one bus",
		"Processors", "Bus Utilization (%)", "Mean Performance", "Relative to 1 CPU")
	var base float64
	var xs, ys []float64
	for _, c := range cells {
		n := c.Spec.Machine.Processors
		m, err := o.run(c.Spec)
		if err != nil {
			return nil, err
		}
		perf := 0.0
		for i := 0; i < n; i++ {
			perf += m.Performance(i)
		}
		perf /= float64(n)
		if n == 1 {
			base = perf
		}
		rel := perf / base
		t.Add(n, 100*m.Bus.Utilization(), perf, rel)
		xs = append(xs, float64(n))
		ys = append(ys, rel)
	}
	var plot stats.Plot
	plot.Title = "Per-processor performance vs processor count"
	plot.XLabel = "processors"
	plot.YLabel = "relative performance"
	plot.Add("independent edit traces", xs, ys)
	return &Result{
		ID:        "scaling",
		Title:     "per-processor performance vs number of processors",
		Table:     t,
		Plot:      &plot,
		PaperNote: "paper estimates up to 5 processors per bus before contention degrades performance",
	}, nil
}

// AblationTopology scales the machine past one bus: a 64-board machine
// running independent edit traces, with the interconnect swept from one
// shared VMEbus to 16 local segments joined by the inclusion-filtered
// inter-bus link. Measured per-segment bus utilization is compared
// against the Section 5.3 machine-repairman model evaluated with the
// per-segment board count, and the link columns show how much
// consistency traffic the inclusion filter keeps local.
func AblationTopology(o Options) (*Result, error) {
	// The experiment runs its grid's cells. As in AblationScaling, each
	// board is an independent job with its own address space and a
	// private slice of the kernel region.
	g := topologyGrid(o)
	refsPer := g.Base.Workload.Refs
	boards := g.Base.Machine.Processors
	cells, err := g.Expand()
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Hierarchical interconnect: 64 boards, independent edit traces",
		"Buses", "Boards/Bus", "Miss Ratio (%)", "Bus Util (%)", "Model Util (%)",
		"Link Crossings", "Filtered Local (%)", "Mean Perf")
	var xs, measured, modeled []float64
	for _, c := range cells {
		// A single-bus cell normalizes its topology stanza away.
		buses := 1
		if c.Spec.Topology != nil {
			buses = c.Spec.Topology.Buses
		}
		perBus := (boards + buses - 1) / buses
		m, err := o.run(c.Spec)
		if err != nil {
			return nil, err
		}
		cs, _ := m.TotalStats()
		totalRefs := uint64(boards) * uint64(refsPer)
		missRatio := float64(cs.Fills) / float64(totalRefs)
		refTime := m.Config().Timing.RefTime()
		// Per-miss costs measured from this run: total board-resident
		// miss time (finish minus ideal compute) and total interconnect
		// occupancy, each divided by the fill count. The elapsed figure
		// includes queueing delay, so the model is fed this machine's
		// own operating point rather than an unloaded calibration.
		var finish sim.Time
		for i := 0; i < boards; i++ {
			finish += m.FinishTime(i)
		}
		missElapsed := finish - sim.Time(totalRefs)*refTime
		elapsedPerMiss := sim.Time(uint64(missElapsed) / cs.Fills)
		busPerMiss := sim.Time(uint64(m.Bus.Stats().BusyTime) / cs.Fills)
		model := queuing.FromMissModel(perBus, refTime, missRatio, elapsedPerMiss, busPerMiss).Solve()

		perf := 0.0
		for i := 0; i < boards; i++ {
			perf += m.Performance(i)
		}
		perf /= float64(boards)

		util := m.Bus.Utilization()
		crossings, filtered := "-", "-"
		if h, ok := m.Bus.(*bus.Hierarchy); ok {
			ls := h.LinkStats()
			crossings = fmt.Sprintf("%d", ls.Crossings)
			if tot := ls.Crossings + ls.FilteredLocal; tot > 0 {
				filtered = fmt.Sprintf("%.1f", 100*float64(ls.FilteredLocal)/float64(tot))
			}
		}
		t.Add(buses, perBus, 100*missRatio, 100*util, 100*model.BusUtilization,
			crossings, filtered, perf)
		xs = append(xs, float64(buses))
		measured = append(measured, 100*util)
		modeled = append(modeled, 100*model.BusUtilization)
	}
	var plot stats.Plot
	plot.Title = "Per-segment bus utilization vs segment count (64 boards)"
	plot.XLabel = "local buses"
	plot.YLabel = "bus utilization (%)"
	plot.Add("measured", xs, measured)
	plot.Add("queuing model", xs, modeled)
	t.Note = "model: machine-repairman per segment, fed this run's measured miss ratio and per-miss costs"
	return &Result{
		ID:    "topology",
		Title: "hierarchical multi-bus scaling vs the queuing model",
		Table: t,
		Plot:  &plot,
		PaperNote: "the paper's queuing model caps one VMEbus near 5 processors; a bus hierarchy with " +
			"filtered inter-bus consistency (VMP-MC direction) is how the design scales past it",
	}, nil
}

// AblationFIFO explores bus-monitor FIFO depth under an invalidation
// storm: how often the overflow recovery sweep runs and what it costs.
func AblationFIFO(o Options) (*Result, error) {
	pages := 60
	if o.Quick {
		pages = 24
	}
	run := func(depth int) (recoveries uint64, elapsed sim.Time, err error) {
		cfg := core.Config{
			Processors: 4,
			Cache:      cache.Geometry(64<<10, 256, 4),
			MemorySize: 8 << 20,
			FIFODepth:  depth,
		}
		m, err := o.machine(cfg)
		if err != nil {
			return 0, 0, err
		}
		m.EnsureSpace(1)
		var addrs []uint32
		for i := 0; i < pages; i++ {
			addrs = append(addrs, 0x200000+uint32(i)*256)
		}
		m.Prefault(1, addrs)
		m.RunProgram(0, func(c *core.CPU) {
			c.SetASID(1)
			for _, a := range addrs {
				_ = c.Load(a)
			}
			c.ComputeUninterruptible(70_000) // the storm queues up unserviced
			for _, a := range addrs {
				_ = c.Load(a)
			}
		})
		for w := 1; w <= 3; w++ {
			w := w
			m.RunProgram(w, func(c *core.CPU) {
				c.SetASID(1)
				c.Idle(8 * sim.Millisecond)
				for i, a := range addrs {
					if i%3 == w-1 {
						c.Store(a, uint32(w))
					}
				}
			})
		}
		end := m.Run()
		if v := m.CheckInvariants(); len(v) != 0 {
			return 0, 0, fmt.Errorf("invariants: %v", v)
		}
		return m.Boards[0].Stats().Recoveries, end, nil
	}
	t := stats.NewTable("FIFO depth under an invalidation storm",
		"FIFO Depth", "Recovery Sweeps", "Elapsed (µs)")
	for _, depth := range []int{4, 16, 128} {
		rec, end, err := run(depth)
		if err != nil {
			return nil, err
		}
		t.Add(depth, rec, end.Micros())
	}
	return &Result{
		ID:    "fifo",
		Title: "FIFO overflow recovery",
		Table: t,
		PaperNote: "paper: the 128-entry FIFO makes dropped words extremely unlikely; recovery " +
			"conservatively invalidates shared entries",
	}, nil
}

// AblationAlias measures the cost of the self-consistency protocol for
// virtual-address aliases: write via one alias, read via the other,
// repeatedly.
func AblationAlias(o Options) (*Result, error) {
	flips := 100
	if o.Quick {
		flips = 30
	}
	m, err := o.newMachine(1, 64<<10)
	if err != nil {
		return nil, err
	}
	m.EnsureSpace(1)
	m.Prefault(1, []uint32{0x10000, 0x20000})
	w, err := m.VM.Translate(1, 0x10000, false, false)
	if err != nil {
		return nil, err
	}
	if _, _, err := m.VM.Remap(1, 0x20000, vm.NewPTE(w.PTE.Frame(), vm.Present|vm.Writable)); err != nil {
		return nil, err
	}
	var elapsed sim.Time
	var mismatches int
	m.RunProgram(0, func(c *core.CPU) {
		c.SetASID(1)
		start := c.Now()
		for i := 0; i < flips; i++ {
			va, vb := uint32(0x10000), uint32(0x20000)
			if i%2 == 1 {
				va, vb = vb, va
			}
			c.Store(va, uint32(i))
			if got := c.Load(vb); got != uint32(i) {
				mismatches++
			}
		}
		elapsed = c.Now() - start
	})
	m.Run()
	if v := m.CheckInvariants(); len(v) != 0 {
		return nil, fmt.Errorf("invariants: %v", v)
	}
	if mismatches != 0 {
		return nil, fmt.Errorf("alias consistency broken %d times", mismatches)
	}
	_, bs := m.TotalStats()
	t := stats.NewTable("Alias self-consistency",
		"Alias Flips", "Elapsed (µs)", "µs per Flip", "Write-Backs", "Aborted Fills")
	t.Add(flips, elapsed.Micros(), elapsed.Micros()/float64(flips), bs.WriteBacks, bs.Retries)
	return &Result{
		ID:        "alias",
		Title:     "virtual-address alias consistency (processor competing against itself)",
		Table:     t,
		PaperNote: "paper: the scheme handles virtual address aliases with no restrictions",
	}, nil
}

// AblationTranslation measures the Section 3.4 remap sequence: cost of
// changing a virtual-to-physical mapping with full consistency.
func AblationTranslation(o Options) (*Result, error) {
	remaps := 50
	if o.Quick {
		remaps = 15
	}
	m, err := o.newMachine(2, 64<<10)
	if err != nil {
		return nil, err
	}
	m.EnsureSpace(1)
	m.Prefault(1, []uint32{0x10000})
	// A spare frame to flip the mapping between.
	m.Prefault(1, []uint32{0x20000})
	wa, _ := m.VM.Translate(1, 0x10000, false, false)
	wb, _ := m.VM.Translate(1, 0x20000, false, false)
	frames := []uint32{wa.PTE.Frame(), wb.PTE.Frame()}
	if _, _, err := m.VM.Remap(1, 0x20000, 0); err != nil {
		return nil, err
	}

	var elapsed sim.Time
	var stale int
	// A second processor keeps the page cached so remaps must flush it.
	m.RunProgram(1, func(c *core.CPU) {
		c.SetASID(1)
		for i := 0; i < remaps; i++ {
			_ = c.Load(0x10000)
			c.Idle(40 * sim.Microsecond)
		}
	})
	m.RunProgram(0, func(c *core.CPU) {
		c.SetASID(1)
		c.SetSupervisor(true)
		start := c.Now()
		for i := 0; i < remaps; i++ {
			target := frames[(i+1)%2]
			if err := c.RemapPage(0x10000, vm.NewPTE(target, vm.Present|vm.Writable)); err != nil {
				stale++
				continue
			}
			c.Idle(60 * sim.Microsecond)
		}
		elapsed = c.Now() - start
	})
	m.Run()
	if v := m.CheckInvariants(); len(v) != 0 {
		return nil, fmt.Errorf("invariants: %v", v)
	}
	if stale != 0 {
		return nil, fmt.Errorf("%d remaps failed", stale)
	}
	st := m.Bus.Stats()
	t := stats.NewTable("Translation consistency (Section 3.4 remap)",
		"Remaps", "Elapsed (µs)", "µs per Remap", "Assert-Ownership Txs", "Write-Action-Table Txs")
	t.Add(remaps, elapsed.Micros(), elapsed.Micros()/float64(remaps),
		st.Transactions[bus.AssertOwnership], st.Transactions[bus.WriteActionTable])
	return &Result{
		ID:    "translation",
		Title: "page remap with translation consistency",
		Table: t,
		PaperNote: "paper: read-private on the page-table entry's cache page, assert-ownership on " +
			"the old physical page, then update the entry",
	}, nil
}
