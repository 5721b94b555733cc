package experiments

import (
	"fmt"

	"vmp/internal/cache"
	"vmp/internal/core"
	"vmp/internal/obs"
)

// MissCost measures the Table-2-style miss-cost breakdown from the
// observability event stream instead of recomputing it from the timing
// constants: four processors run the edit workload with a slice of
// references redirected to a shared kernel region (so the stream
// contains contended phases — write-backs, retries, upgrades — not just
// the cold-start fill path), and the per-phase latency histograms the
// sink maintains become the table. The note carries the stream digest,
// which doubles as the serial-vs-parallel byte-identity witness: CI
// diffs vmpbench output across worker counts, and a digest mismatch
// would surface there.
func MissCost(o Options) (*Result, error) {
	refsPer := 60_000
	if o.Quick {
		refsPer = 15_000
	}
	const procs = 4
	m, err := o.machine(core.Config{
		Processors: procs,
		Cache:      cache.Geometry(128<<10, 256, 4),
		MemorySize: 8 << 20,
		Obs:        &obs.Config{Stream: true},
	})
	if err != nil {
		return nil, err
	}
	streams, err := sharedEditTraces(o.Seed, procs, refsPer, 77, 2, 8)
	if err != nil {
		return nil, err
	}
	if err := replayStreams(m, streams); err != nil {
		return nil, err
	}
	m.Run()
	if v := m.CheckInvariants(); len(v) != 0 {
		return nil, fmt.Errorf("invariants: %v", v)
	}

	sink := m.Sink()
	t := sink.PhaseTable()
	hottest := "none"
	if hot := sink.HotPages(1); len(hot) > 0 {
		hottest = fmt.Sprintf("%#08x (%d consistency txns, %d aborts)",
			hot[0].PAddr, hot[0].Traffic, hot[0].Aborts)
	}
	t.Note = fmt.Sprintf("event stream: %d events, digest %016x; hottest page %s",
		sink.Total(), sink.Digest(), hottest)
	return &Result{
		ID:    "misscost",
		Title: "per-phase miss-cost breakdown from the event stream",
		Table: t,
		PaperNote: "Table 2: average miss cost 17µs elapsed / 4.4µs bus at 128-byte pages, " +
			"21.29µs / 8.316µs at 256-byte (75% clean victims); the phase rows here are " +
			"measured spans of the same handler decomposition",
	}, nil
}
