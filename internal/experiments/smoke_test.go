package experiments

import "testing"

// TestSmokeAll regenerates every artifact in quick mode across parallel
// workers and checks each produces a table (figures also a plot) and
// carries engine metrics.
func TestSmokeAll(t *testing.T) {
	res, err := RunAll(Options{Quick: true, Seed: 11}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(IDs()) {
		t.Fatalf("%d results, want %d", len(res), len(IDs()))
	}
	for _, r := range res {
		if r.Table == nil {
			t.Errorf("%s: no table", r.ID)
		}
		if r.ID == "fig3" || r.ID == "fig4" || r.ID == "fig5" {
			if r.Plot == nil {
				t.Errorf("%s: no plot", r.ID)
			}
		}
		// Any experiment that advanced simulated time must report engine
		// activity through the run metrics. (Trace-driven miss-ratio
		// studies run the cache with no engine; fig1/fig2 build a machine
		// only to introspect its configuration.)
		if r.Metrics.SimTime > 0 && r.Metrics.EventsFired == 0 {
			t.Errorf("%s: sim time advanced but no events recorded", r.ID)
		}
		if r.ID == "table1" || r.ID == "locks" {
			if r.Metrics.EventsFired == 0 || r.Metrics.SimTime == 0 || r.Metrics.Wall <= 0 {
				t.Errorf("%s: incomplete run metrics %+v", r.ID, r.Metrics)
			}
		}
		t.Log("\n" + r.String())
	}
}

// TestExperimentsRetireTheirProcesses runs every experiment and checks
// each engine it built ends with no live process: a parked coroutine
// would keep its whole machine reachable after the result is returned.
func TestExperimentsRetireTheirProcesses(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			o := Options{Quick: true, Seed: seedFor(11, e.ID), track: &engineTrack{}}
			if _, err := e.Run(o); err != nil {
				t.Fatal(err)
			}
			for i, eng := range o.track.engines {
				if live := eng.Live(); live != 0 {
					t.Errorf("engine %d of %d: %d live processes after the run", i+1, len(o.track.engines), live)
				}
			}
		})
	}
}
