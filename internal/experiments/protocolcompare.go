package experiments

import (
	"fmt"

	"vmp/internal/check/diff"
	"vmp/internal/sim"
	"vmp/internal/stats"
)

// ProtocolCompare runs the differential oracle's planned workload
// (internal/check/diff) under every registered protocol on otherwise
// identical machines and tabulates what each protocol pays on the bus
// for the same work: miss cost, bus occupancy, abort and retry counts,
// AssertOwnership upgrades (which vmp3's exclusive-clean grant elides)
// and synonym fills (which only rlt resolves locally). The differential
// oracle gates the table: any watchdog violation or any cross-protocol
// disagreement on the final memory image is an error, not a row.
func ProtocolCompare(o Options) (*Result, error) {
	opsPerCPU := 400
	if o.Quick {
		opsPerCPU = 150
	}
	faults := ""
	if o.Faults != nil && o.Faults.Enabled() {
		faults = o.Faults.String()
	}
	rep, err := diff.Run(diff.Config{
		Protocols:  []string{"vmp2", "vmp3", "rlt"},
		Processors: 4,
		Seed:       o.Seed,
		Faults:     faults,
		OpsPerCPU:  opsPerCPU,
		PageSize:   256,
		CacheKB:    64,
		NewMachine: o.machine,
	})
	if err != nil {
		return nil, fmt.Errorf("protocol-compare: %w", err)
	}
	for _, out := range rep.Outcomes {
		if len(out.Violations) != 0 {
			return nil, fmt.Errorf("protocol-compare: %s: %v", out.Protocol, out.Violations)
		}
	}
	if len(rep.Mismatches) != 0 {
		return nil, fmt.Errorf("protocol-compare: final images diverge: %v", rep.Mismatches)
	}

	t := stats.NewTable("Coherence protocols on one planned workload (4 CPUs, shared pages + synonyms + TAS lock)",
		"Protocol", "Miss Ratio", "Miss Cost (us)", "Bus Util", "Aborts", "Retries", "AssertOwn", "RdExcl", "WriteBacks", "Syn Fills", "Elapsed (ms)")
	for _, out := range rep.Outcomes {
		missCost := 0.0
		if out.Misses > 0 {
			missCost = float64(out.MissTime) / float64(out.Misses) / float64(sim.Microsecond)
		}
		t.Add(out.Protocol,
			fmt.Sprintf("%.4f", out.MissRatio),
			fmt.Sprintf("%.2f", missCost),
			fmt.Sprintf("%.3f", out.BusUtil),
			out.BusAborts, out.Retries, out.AssertOwn, out.ReadExclusive,
			out.WriteBacks, out.SynonymFills,
			float64(out.Elapsed)/float64(sim.Millisecond))
	}
	t.Note = "identical final memory images under every protocol (differential oracle); " +
		"vmp3 trades AssertOwnership upgrades for ReadExclusive fills, rlt trades self-abort retries for local synonym fills"
	return &Result{
		ID:    "protocol-compare",
		Title: "coherence-protocol comparison under the differential oracle",
		Table: t,
		PaperNote: "Section 3.2 fixes the 2-state protocol in hardware tables; the paper argues the software " +
			"miss handler makes the protocol replaceable but evaluates only one — this sweep measures two variants it enables",
	}, nil
}
