package experiments

import "vmp/internal/scenario"

// Three experiments are data: fig5, scaling and topology execute their
// scenario.Grid's cells through scenario.Run (via Options.run), so the
// declarative form and the runner cannot drift. Every other experiment
// is plain code that builds its machines directly.

// machineSpec is shorthand for the experiments' standard machine shape
// (256-byte pages, 4-way, 8 MB memory — the newMachine helper).
func machineSpec(procs, cacheSize int) scenario.MachineSpec {
	return scenario.MachineSpec{
		Processors: procs,
		CacheSize:  cacheSize,
		PageSize:   256,
		Assoc:      4,
		MemorySize: 8 << 20,
	}
}

// fig5Grid is Figure 5's measured point: one processor replaying an
// edit trace. Figure5 runs its single cell.
func fig5Grid(o Options) *scenario.Grid {
	return &scenario.Grid{
		Name: "fig5",
		Base: scenario.Spec{
			Machine:  machineSpec(1, 128<<10),
			Workload: scenario.WorkloadSpec{Kind: scenario.WorkloadProfile, Profile: "edit", Refs: o.traceLen()},
		},
	}
}

// scalingGrid is the Section 5.3 scaling sweep: independent edit
// traces on 1-8 processors sharing one bus.
func scalingGrid(o Options) *scenario.Grid {
	counts := scenario.Values(1, 2, 3, 4, 5, 6, 8)
	refsPer := 120_000
	if o.Quick {
		counts = scenario.Values(1, 2, 4, 6)
		refsPer = 25_000
	}
	return &scenario.Grid{
		Name: "scaling",
		Base: scenario.Spec{
			Machine:  machineSpec(1, 128<<10),
			Workload: scenario.WorkloadSpec{Kind: scenario.WorkloadProfile, Profile: "edit", Refs: refsPer},
		},
		Axes: []scenario.Axis{
			{Path: "machine.processors", Values: counts},
		},
	}
}

// topologyGrid is the hierarchical-interconnect sweep: a 64-board
// machine running independent edit traces, with the board count fixed
// and the number of local bus segments swept via the dotted topology
// stanza (boards_per_bus normalizes to an even spread). buses=1 is the
// classic single shared VMEbus far past its Section 5.3 saturation
// point — the case the hierarchy exists to fix.
func topologyGrid(o Options) *scenario.Grid {
	refsPer := 12_000
	buses := scenario.Values(1, 2, 4, 8, 16)
	if o.Quick {
		refsPer = 2_500
		buses = scenario.Values(1, 4, 8)
	}
	m := machineSpec(64, 64<<10)
	// 64 boards touch far more distinct pages than the prototype's 8 MB
	// holds; the hierarchy models a bigger multi-ported memory anyway.
	m.MemorySize = 32 << 20
	return &scenario.Grid{
		Name: "topology",
		Base: scenario.Spec{
			Machine:  m,
			Workload: scenario.WorkloadSpec{Kind: scenario.WorkloadProfile, Profile: "edit", Refs: refsPer},
		},
		Axes: []scenario.Axis{
			{Path: "topology.buses", Values: buses},
		},
	}
}
