package experiments

import (
	"fmt"

	"vmp/internal/sim"
	"vmp/internal/stats"
	"vmp/internal/trace"
	"vmp/internal/workload"
)

// AblationConsistency quantifies Section 5.4's premise that "the effect
// of consistency interrupts can be incorporated into the above figures
// by assuming a higher miss ratio": four processors run the edit
// workload with a varying fraction of references redirected to a shared
// read/write region, and the experiment reports the *effective* miss
// ratio each processor sees (fills per reference — including the fills
// caused by invalidations and downgrades) against its unshared
// baseline, plus the resulting processor performance.
func AblationConsistency(o Options) (*Result, error) {
	refsPer := 120_000
	if o.Quick {
		refsPer = 25_000
	}
	const procs = 4
	run := func(sharePct int) (missRatio, perf float64, intr uint64, err error) {
		m, err := o.newMachine(procs, 128<<10)
		if err != nil {
			return 0, 0, 0, err
		}
		streams, err := sharedEditTraces(o.Seed, procs, refsPer, 99, sharePct, 16) // 4 KB of contended data
		if err != nil {
			return 0, 0, 0, err
		}
		if err := replayStreams(m, streams); err != nil {
			return 0, 0, 0, err
		}
		m.Run()
		if v := m.CheckInvariants(); len(v) != 0 {
			return 0, 0, 0, fmt.Errorf("invariants: %v", v)
		}
		var fills, refs, words uint64
		var perfSum float64
		for i, b := range m.Boards {
			fills += b.Cache.Stats().Fills
			refs += b.Stats().Refs
			words += b.Stats().IntrWords
			perfSum += m.Performance(i)
		}
		return float64(fills) / float64(refs), perfSum / procs, words, nil
	}

	t := stats.NewTable("Consistency overhead as effective miss-ratio inflation (4 CPUs)",
		"Shared Data Refs (%)", "Effective Miss Ratio (%)", "Consistency Interrupts", "Mean Performance")
	for _, pct := range []int{0, 1, 2, 5} {
		mr, perf, words, err := run(pct)
		if err != nil {
			return nil, err
		}
		t.Add(pct, 100*mr, words, perf)
	}
	t.Note = "sharing inflates the fill rate exactly as the paper's 'hypothesize a higher miss ratio' suggests"
	return &Result{
		ID:    "consistency",
		Title: "consistency interrupts as an effective miss-ratio increase",
		Table: t,
		PaperNote: "Section 5: \"consistency overhead can be incorporated in these performance " +
			"estimates by hypothesizing a higher miss ratio than that suggested by the simulations\"",
	}, nil
}

// sharedEditTraces builds one edit trace per board. Board i runs in
// address space i+1 with its own 16 MB slice of the kernel region, and
// sharePct percent of its data references (reads and writes alike) are
// redirected to a sharedPages-page region of the kernel virtual space.
// That region's translation is common to every address space, so all
// boards contend for the same physical frames (user addresses would be
// private to each ASID). seedMul seeds the redirection choices.
func sharedEditTraces(seed uint64, procs, refsPer int, seedMul uint64, sharePct, sharedPages int) ([][]trace.Ref, error) {
	const sharedBase = 0xd800_0000
	streams := make([][]trace.Ref, procs)
	for i := range streams {
		refs, err := workload.Generate(workload.Edit, seed+uint64(i)*31, refsPer)
		if err != nil {
			return nil, err
		}
		rnd := sim.NewRand(seed*seedMul + uint64(i))
		for j := range refs {
			refs[j].ASID = uint8(i + 1)
			if refs[j].VAddr >= workload.KernelCodeBase {
				refs[j].VAddr += uint32(i) << 24
			}
			if refs[j].Kind != trace.IFetch && rnd.Intn(100) < sharePct {
				refs[j].VAddr = sharedBase + uint32(rnd.Intn(sharedPages*64))*4
				refs[j].Super = true // kernel-region access
			}
		}
		streams[i] = refs
	}
	return streams, nil
}
