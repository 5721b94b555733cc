// Package diff is the differential oracle across coherence protocols:
// it runs the same timing-decoupled multiprocessor program under every
// protocol in a set (on otherwise identical machines, with the same
// fault plan and seed) and demands that all of them converge to the
// same final memory image while staying watchdog-clean.
//
// The protocols deliberately differ in *when* things happen — vmp3
// elides AssertOwnership transactions, rlt resolves synonyms without
// bus traffic — so the comparison must not depend on timing. The
// workload is therefore a precomputed plan: every CPU's operation
// sequence and every stored value is drawn from the seed before the
// simulation starts, spin loops back off by a fixed amount (no random
// draws inside timing-dependent retries), and every word whose final
// value is compared has exactly one writer (the paper's false-sharing
// discipline: processors own disjoint words inside shared cache
// pages). Under those rules the final value of each planned word is
// its owner's last planned write and the TAS-guarded counter ends at
// the planned increment total — for every protocol, at every
// interleaving the fault plan can provoke.
//
// What still differs per protocol is the traffic profile: bus aborts,
// occupancy, ReadExclusive and AssertOwnership counts, synonym fills.
// Run reports those alongside the verdict so the protocol-compare
// experiment and the torture tests can assert both sides — same
// memory, different bus.
package diff

import (
	"fmt"

	"vmp/internal/bus"
	"vmp/internal/cache"
	"vmp/internal/core"
	"vmp/internal/fault"
	"vmp/internal/protocol"
	"vmp/internal/sim"
	"vmp/internal/vm"
)

// Config parameterizes one differential run. The zero value is filled
// with the documented defaults by Run.
type Config struct {
	// Protocols to compare (default: every registered protocol).
	Protocols []string
	// Processors per machine (default 4).
	Processors int
	// Topology is the interconnect shape (zero value = the classic
	// single shared bus). A multi-bus shape routes the plan's heavy
	// cross-CPU sharing over the inter-bus link, so the oracle also
	// exercises the inclusion filter and cross-segment consistency.
	Topology bus.Topology
	// Seed feeds the plan generator and the fault injector.
	Seed uint64
	// Faults is a fault plan in internal/fault's textual form ("" = no
	// injection; the watchdog runs either way).
	Faults string
	// OpsPerCPU is the planned operation count per processor
	// (default 200).
	OpsPerCPU int
	// Pages is the number of shared data cache pages (default 6).
	Pages int
	// Aliases is how many of those pages also get a second virtual
	// window (synonyms; default 2). Aliased accesses are what separate
	// vmp2's self-abort path from rlt's local resolution.
	Aliases int
	// PageSize is the cache page size in bytes (default 256).
	PageSize int
	// CacheKB is the per-board cache capacity in KB (default 64).
	CacheKB int
	// NewMachine overrides machine construction (default
	// core.NewMachine). The experiment layer threads its tracked
	// constructor through here so diff runs show up in run metrics.
	NewMachine func(core.Config) (*core.Machine, error)
}

func (c *Config) fillDefaults() {
	if len(c.Protocols) == 0 {
		c.Protocols = protocol.Names()
	}
	if c.Processors == 0 {
		c.Processors = 4
	}
	if c.Seed == 0 {
		c.Seed = 11
	}
	if c.OpsPerCPU == 0 {
		c.OpsPerCPU = 200
	}
	if c.Pages == 0 {
		c.Pages = 6
	}
	if c.Aliases == 0 {
		c.Aliases = 2
	}
	if c.Aliases > c.Pages {
		c.Aliases = c.Pages
	}
	if c.PageSize == 0 {
		c.PageSize = 256
	}
	if c.CacheKB == 0 {
		c.CacheKB = 64
	}
	if c.NewMachine == nil {
		c.NewMachine = core.NewMachine
	}
}

// op kinds in a plan.
const (
	opWrite = iota // store a planned value to the CPU's own word
	opRead         // load some word (value unchecked; reads race by design)
	opCrit         // TAS-guarded counter increment
	opThink        // fixed compute burst
	opFlush        // flush a shared page by physical address
)

// plannedOp is one precomputed operation: everything the program needs,
// drawn before the simulation starts so no protocol- or
// timing-dependent state can perturb the sequence.
type plannedOp struct {
	kind  int
	page  int    // target page index (write/read/flush)
	word  int    // target word index within the page (read)
	alias bool   // access via the synonym window (write/read)
	value uint32 // stored value (write)
	burst int    // compute length (think)
}

// plan is the full precomputed workload: per-CPU op sequences plus the
// planned final state they imply.
type plan struct {
	cfg   Config
	ops   [][]plannedOp       // [cpu][step]
	final []map[uint32]uint32 // [cpu]: own-word VA -> last planned value
	crits int                 // total planned counter increments
}

// makePlan draws the complete workload from the seed. The draw order
// is fixed (cpu-major, step-minor), so the same (seed, config) always
// yields the same plan regardless of protocol or host.
func makePlan(cfg Config) *plan {
	p := &plan{cfg: cfg}
	for cpu := 0; cpu < cfg.Processors; cpu++ {
		rnd := sim.NewRand(cfg.Seed*1000 + uint64(cpu))
		seq := make([]plannedOp, 0, cfg.OpsPerCPU)
		last := make(map[uint32]uint32)
		for i := 0; i < cfg.OpsPerCPU; i++ {
			switch rnd.Intn(10) {
			case 0, 1, 2:
				o := plannedOp{kind: opWrite, page: rnd.Intn(cfg.Pages), value: uint32(rnd.Uint64())}
				o.alias = o.page < cfg.Aliases && rnd.Bool(0.35)
				seq = append(seq, o)
				last[p.wordVA(o.page, cpu)] = o.value
			case 3, 4, 5:
				o := plannedOp{kind: opRead, page: rnd.Intn(cfg.Pages), word: rnd.Intn(cfg.Processors)}
				o.alias = o.page < cfg.Aliases && rnd.Bool(0.35)
				seq = append(seq, o)
			case 6, 7:
				seq = append(seq, plannedOp{kind: opCrit})
				p.crits++
			case 8:
				seq = append(seq, plannedOp{kind: opThink, burst: 20 + rnd.Intn(180)})
			case 9:
				seq = append(seq, plannedOp{kind: opFlush, page: rnd.Intn(cfg.Pages)})
			}
		}
		p.ops = append(p.ops, seq)
		p.final = append(p.final, last)
	}
	return p
}

// Virtual address layout (single address space, ASID 1): data pages
// from dataBase, one cache page apart; the TAS lock and the guarded
// counter on their own pages after them; synonym windows from
// aliasBase, one VM page apart so each alias gets its own PTE.
const (
	dataBase  = uint32(0x100000)
	aliasBase = uint32(0x400000)
)

func (p *plan) pageVA(pg int) uint32 { return dataBase + uint32(pg)*uint32(p.cfg.PageSize) }
func (p *plan) wordVA(pg, cpu int) uint32 {
	return p.pageVA(pg) + uint32(cpu)*4
}
func (p *plan) aliasVA(pg int, off uint32) uint32 {
	return aliasBase + uint32(pg)*vm.PageSize + p.pageVA(pg)%vm.PageSize + off
}
func (p *plan) lockVA() uint32 {
	return dataBase + uint32(p.cfg.Pages)*uint32(p.cfg.PageSize)
}
func (p *plan) counterVA() uint32 {
	return dataBase + uint32(p.cfg.Pages+1)*uint32(p.cfg.PageSize)
}

// Outcome is one protocol's result: the verdict inputs and the traffic
// profile that distinguishes the protocols.
type Outcome struct {
	Protocol   string
	Violations []string // watchdog + invariant findings (empty = clean)

	// Image is the final value of every compared word, keyed by VA:
	// each CPU's owned words plus the guarded counter.
	Image map[uint32]uint32

	// Traffic profile.
	Refs          uint64
	Misses        uint64
	MissRatio     float64
	MissTime      sim.Time // total miss-handler time
	BusAborts     uint64
	BusBusy       sim.Time
	Elapsed       sim.Time
	BusUtil       float64 // BusBusy / Elapsed
	ReadShared    uint64
	ReadExclusive uint64
	AssertOwn     uint64
	WriteBacks    uint64
	Retries       uint64
	SynonymFills  uint64
	Recoveries    uint64
}

// Report is the differential verdict across all protocols in a run.
type Report struct {
	Outcomes []Outcome
	// Mismatches lists every cross-protocol disagreement: a word whose
	// final value differs between two protocols, or a planned value one
	// protocol lost. Empty means the images agree and match the plan.
	Mismatches []string
}

// Run executes the differential oracle: one machine per protocol, the
// same plan and fault seed on each, then the cross-protocol image
// comparison. The error covers setup problems only; protocol
// disagreements land in the Report.
func Run(cfg Config) (*Report, error) {
	cfg.fillDefaults()
	fs, err := fault.Parse(cfg.Faults)
	if err != nil {
		return nil, err
	}
	pl := makePlan(cfg)

	rep := &Report{}
	for _, name := range cfg.Protocols {
		if _, err := protocol.Get(name); err != nil {
			return nil, err
		}
		out, err := runOne(name, pl, fs, cfg.NewMachine)
		if err != nil {
			return nil, fmt.Errorf("diff: protocol %s: %w", name, err)
		}
		rep.Outcomes = append(rep.Outcomes, *out)
	}
	rep.compare(pl)
	return rep, nil
}

// runOne runs the plan on a fresh machine under one protocol.
func runOne(name string, pl *plan, fs *fault.Spec, newMachine func(core.Config) (*core.Machine, error)) (*Outcome, error) {
	cfg := pl.cfg
	mcfg := core.Config{
		Processors: cfg.Processors,
		Cache:      cache.Geometry(cfg.CacheKB<<10, cfg.PageSize, 4),
		MemorySize: 8 << 20,
		Protocol:   name,
		Topology:   cfg.Topology,
		Watchdog:   true,
	}
	if fs.Enabled() {
		mcfg.Faults = fs
		mcfg.FaultSeed = cfg.Seed
	}
	m, err := newMachine(mcfg)
	if err != nil {
		return nil, err
	}
	if err := m.EnsureSpace(1); err != nil {
		return nil, err
	}

	// Shared data pages plus lock and counter pages.
	var vas []uint32
	for pg := 0; pg < cfg.Pages; pg++ {
		vas = append(vas, pl.pageVA(pg))
	}
	vas = append(vas, pl.lockVA(), pl.counterVA())
	if err := m.Prefault(1, vas); err != nil {
		return nil, err
	}

	// Synonym windows: remap each alias VM page onto its data page's
	// frame, after prefaulting it so the remap has a PTE to replace.
	for pg := 0; pg < cfg.Aliases; pg++ {
		aliasPage := aliasBase + uint32(pg)*vm.PageSize
		if err := m.Prefault(1, []uint32{aliasPage}); err != nil {
			return nil, err
		}
		w, err := m.VM.Translate(1, pl.pageVA(pg), false, false)
		if err != nil {
			return nil, err
		}
		if _, _, err := m.VM.Remap(1, aliasPage, vm.NewPTE(w.PTE.Frame(), vm.Present|vm.Writable)); err != nil {
			return nil, err
		}
	}

	for cpu := 0; cpu < cfg.Processors; cpu++ {
		cpu := cpu
		m.RunProgram(cpu, func(c *core.CPU) {
			c.SetASID(1)
			c.Idle(sim.Time(cpu) * sim.Microsecond)
			for _, o := range pl.ops[cpu] {
				switch o.kind {
				case opWrite:
					va := pl.wordVA(o.page, cpu)
					if o.alias {
						va = pl.aliasVA(o.page, uint32(cpu)*4)
					}
					c.Store(va, o.value)
				case opRead:
					va := pl.wordVA(o.page, o.word)
					if o.alias {
						va = pl.aliasVA(o.page, uint32(o.word)*4)
					}
					_ = c.Load(va)
				case opCrit:
					// Test-and-test-and-set with a fixed backoff (a random
					// one would consume draws at a contention-dependent,
					// hence protocol-dependent, rate). Spinning on a shared
					// read instead of the TAS itself matters under every
					// protocol: naive TAS spinning keeps stealing the lock
					// page private, and the holder's release store can be
					// starved out of the bus indefinitely (the exponential
					// retry backoff punishes the one board that must win).
					// Shared reader entries never abort the release.
					for {
						for c.Load(pl.lockVA()) != 0 {
							c.Compute(12)
						}
						if c.TAS(pl.lockVA()) == 0 {
							break
						}
						c.Compute(20)
					}
					v := c.Load(pl.counterVA())
					c.Compute(8)
					c.Store(pl.counterVA(), v+1)
					c.Store(pl.lockVA(), 0)
				case opThink:
					c.Compute(o.burst)
				case opFlush:
					w, err := m.VM.Translate(1, pl.pageVA(o.page), false, false)
					if err == nil {
						c.FlushPage(w.PAddr)
					}
				}
			}
		})
	}
	elapsed := m.Run()

	out := &Outcome{
		Protocol:   name,
		Violations: m.CheckInvariants(),
		Image:      map[uint32]uint32{},
		Elapsed:    elapsed,
	}
	cs, bs := m.TotalStats()
	if bs.Violations != 0 {
		out.Violations = append(out.Violations,
			fmt.Sprintf("%d protocol violations counted", bs.Violations))
	}
	busStats := m.Bus.Stats()
	out.Refs = bs.Refs
	out.Misses = cs.Misses + cs.WriteMisses
	out.MissRatio = cs.MissRatio()
	out.MissTime = bs.MissTime
	out.BusAborts = busStats.Aborts
	out.BusBusy = busStats.BusyTime
	if elapsed > 0 {
		out.BusUtil = float64(busStats.BusyTime) / float64(elapsed)
	}
	out.ReadShared = busStats.Transactions[bus.ReadShared]
	out.ReadExclusive = busStats.Transactions[bus.ReadExclusive]
	out.AssertOwn = busStats.Transactions[bus.AssertOwnership]
	out.WriteBacks = bs.WriteBacks
	out.Retries = bs.Retries
	out.SynonymFills = bs.SynonymFills
	out.Recoveries = bs.Recoveries

	// Capture the compared image: every CPU's owned words, the guarded
	// counter, and the lock word (which must have been released).
	for cpu := 0; cpu < cfg.Processors; cpu++ {
		for va := range pl.final[cpu] {
			w, err := m.VM.Translate(1, va, false, false)
			if err != nil {
				return nil, fmt.Errorf("translate %#x: %w", va, err)
			}
			out.Image[va] = m.Mem.ReadWord(w.PAddr)
		}
	}
	for _, va := range []uint32{pl.lockVA(), pl.counterVA()} {
		w, err := m.VM.Translate(1, va, false, false)
		if err != nil {
			return nil, fmt.Errorf("translate %#x: %w", va, err)
		}
		out.Image[va] = m.Mem.ReadWord(w.PAddr)
	}
	return out, nil
}

// compare checks every outcome against the plan (absolute oracle) and
// the first outcome (relative oracle). Iteration goes over the plan's
// deterministic structures, not over maps shared across outcomes, so
// mismatch ordering is stable.
func (r *Report) compare(pl *plan) {
	for i := range r.Outcomes {
		o := &r.Outcomes[i]
		for cpu := 0; cpu < pl.cfg.Processors; cpu++ {
			for pg := 0; pg < pl.cfg.Pages; pg++ {
				va := pl.wordVA(pg, cpu)
				want, planned := pl.final[cpu][va]
				if !planned {
					continue
				}
				if got := o.Image[va]; got != want {
					r.Mismatches = append(r.Mismatches, fmt.Sprintf(
						"%s: cpu %d word %#x = %#x, want planned %#x",
						o.Protocol, cpu, va, got, want))
				}
			}
		}
		if got := o.Image[pl.counterVA()]; got != uint32(pl.crits) {
			r.Mismatches = append(r.Mismatches, fmt.Sprintf(
				"%s: guarded counter %d, want planned %d", o.Protocol, got, pl.crits))
		}
		if got := o.Image[pl.lockVA()]; got != 0 {
			r.Mismatches = append(r.Mismatches, fmt.Sprintf(
				"%s: lock word %#x left held (%d)", o.Protocol, pl.lockVA(), got))
		}
	}
	// Relative oracle: with every image already pinned to the plan this
	// is implied, but compare anyway so a plan-oracle bug cannot hide a
	// cross-protocol divergence.
	if len(r.Outcomes) > 1 {
		ref := r.Outcomes[0]
		for _, o := range r.Outcomes[1:] {
			for cpu := 0; cpu < pl.cfg.Processors; cpu++ {
				for pg := 0; pg < pl.cfg.Pages; pg++ {
					va := pl.wordVA(pg, cpu)
					if _, planned := pl.final[cpu][va]; !planned {
						continue
					}
					if ref.Image[va] != o.Image[va] {
						r.Mismatches = append(r.Mismatches, fmt.Sprintf(
							"word %#x: %s=%#x vs %s=%#x",
							va, ref.Protocol, ref.Image[va], o.Protocol, o.Image[va]))
					}
				}
			}
		}
	}
}
