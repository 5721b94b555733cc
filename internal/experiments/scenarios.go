package experiments

import (
	"vmp/internal/scenario"
	"vmp/internal/workload"
)

// This file makes every registered experiment expressible as data: a
// scenario.Grid describing the machines and workloads the experiment
// sweeps. The sweeping experiments (fig4, assoc, pagecontention,
// fault-sweep) read their axes FROM their grid, and fig5, scaling and
// topology go further: they execute their grid's cells through
// scenario.Run, so the declarative form and the runner cannot drift; the
// program-driven experiments (locks, ipc, workqueue, …) publish the
// machine grid their closures run on, with workload kind "none" —
// their reference streams are generated in code, not replayed from a
// spec.

// profileAxis lists the registered workload profiles as a grid axis.
func profileAxis() []scenario.RawValue {
	var vs []any
	for _, p := range workload.Profiles() {
		vs = append(vs, string(p))
	}
	return scenario.Values(vs...)
}

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

// fig4Grid is Figure 4's sweep: cold-start miss ratio over every
// profile × page size × cache size. Figure4 reads its axes from here.
func fig4Grid(o Options) *scenario.Grid {
	return &scenario.Grid{
		Name: "fig4",
		Base: scenario.Spec{
			Machine:  machineSpec(1, 128<<10),
			Workload: scenario.WorkloadSpec{Kind: scenario.WorkloadProfile, Refs: o.traceLen()},
		},
		Axes: []scenario.Axis{
			{Path: "workload.profile", Values: profileAxis()},
			{Path: "machine.page_size", Values: scenario.Values(128, 256, 512)},
			{Path: "machine.cache_size", Values: scenario.Values(64<<10, 128<<10, 256<<10)},
		},
	}
}

// assocGrid is the associativity ablation's sweep: every profile at
// 128 KB / 256 B with 1, 2 and 4 ways.
func assocGrid(o Options) *scenario.Grid {
	return &scenario.Grid{
		Name: "assoc",
		Base: scenario.Spec{
			Machine:  machineSpec(1, 128<<10),
			Workload: scenario.WorkloadSpec{Kind: scenario.WorkloadProfile, Refs: o.traceLen()},
		},
		Axes: []scenario.Axis{
			{Path: "workload.profile", Values: profileAxis()},
			{Path: "machine.assoc", Values: scenario.Values(1, 2, 4)},
		},
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

// pageContentionGrid is the false-sharing sweep: four writers sharing
// one page at each VMP page size.
func pageContentionGrid(Options) *scenario.Grid {
	return &scenario.Grid{
		Name: "pagecontention",
		Base: scenario.Spec{
			Machine:  machineSpec(4, 64<<10),
			Workload: scenario.WorkloadSpec{Kind: scenario.WorkloadNone},
		},
		Axes: []scenario.Axis{
			{Path: "machine.page_size", Values: scenario.Values(128, 256, 512)},
		},
	}
}

// faultSweepGrid is the recovery grid: one sharing-heavy survival
// workload under escalating fault plans (internal/fault textual form).
// FaultSweep reads the plans from here; the "none" cell normalizes to
// an empty plan with only the watchdog armed.
func faultSweepGrid(Options) *scenario.Grid {
	return &scenario.Grid{
		Name: "fault-sweep",
		Base: scenario.Spec{
			Machine:  machineSpec(4, 64<<10),
			Workload: scenario.WorkloadSpec{Kind: scenario.WorkloadNone},
			Check:    true,
		},
		Axes: []scenario.Axis{
			{Path: "faults", Values: scenario.Values(
				"none",
				"abort=0.15",
				"abort=0.05,copy=0.1",
				"fifo=2,storm=0.25,stormmax=4",
				"abort=0.1,copy=0.05,fifo=2,storm=0.15,stormmax=4,flip=0.05",
			)},
		},
	}
}

// singleCell wraps one machine+workload spec as a one-cell grid.
func singleCell(name string, spec scenario.Spec) func(Options) *scenario.Grid {
	return func(Options) *scenario.Grid {
		return &scenario.Grid{Name: name, Base: spec}
	}
}

// none is the workload spec for program-driven experiments whose
// reference streams are synthesized in code.
var none = scenario.WorkloadSpec{Kind: scenario.WorkloadNone}

// scenarioGrids maps every registry ID to its Grid constructor. The
// registry-coverage test pins that this map and Registry never drift.
var scenarioGrids = map[string]func(Options) *scenario.Grid{
	"fig1": singleCell("fig1", scenario.Spec{Machine: scenario.MachineSpec{Processors: 1}, Workload: none}),
	"table1": func(Options) *scenario.Grid {
		return &scenario.Grid{
			Name: "table1",
			Base: scenario.Spec{Machine: machineSpec(1, 128<<10), Workload: none},
			Axes: []scenario.Axis{{Path: "machine.page_size", Values: scenario.Values(128, 256, 512)}},
		}
	},
	"table2": func(Options) *scenario.Grid {
		return &scenario.Grid{
			Name: "table2",
			Base: scenario.Spec{Machine: machineSpec(1, 128<<10), Workload: none},
			Axes: []scenario.Axis{{Path: "machine.page_size", Values: scenario.Values(128, 256, 512)}},
		}
	},
	"fig2": singleCell("fig2", scenario.Spec{Machine: scenario.MachineSpec{Processors: 1}, Workload: none}),
	"fig3": func(Options) *scenario.Grid {
		return &scenario.Grid{
			Name: "fig3",
			Base: scenario.Spec{Machine: machineSpec(1, 128<<10), Workload: none},
			Axes: []scenario.Axis{{Path: "machine.page_size", Values: scenario.Values(128, 256, 512)}},
		}
	},
	"fig4": fig4Grid,
	"fig5": fig5Grid,
	"locks": func(Options) *scenario.Grid {
		return &scenario.Grid{
			Name: "locks",
			Base: scenario.Spec{Machine: machineSpec(2, 64<<10), Workload: none,
				Kernel: &scenario.KernelSpec{UncachedPages: 2}},
			Axes: []scenario.Axis{{Path: "machine.processors", Values: scenario.Values(2, 4)}},
		}
	},
	"protocols":   singleCell("protocols", scenario.Spec{Machine: machineSpec(4, 64<<10), Workload: none}),
	"copier":      singleCell("copier", scenario.Spec{Machine: machineSpec(1, 128<<10), Workload: none}),
	"readprivate": singleCell("readprivate", scenario.Spec{Machine: machineSpec(1, 128<<10), Workload: none}),
	"scaling":     scalingGrid,
	"topology":    topologyGrid,
	"fifo": func(Options) *scenario.Grid {
		return &scenario.Grid{
			Name: "fifo",
			Base: scenario.Spec{Machine: machineSpec(4, 64<<10), Workload: none},
			Axes: []scenario.Axis{{Path: "machine.fifo_depth", Values: scenario.Values(4, 16, 128)}},
		}
	},
	"alias":       singleCell("alias", scenario.Spec{Machine: machineSpec(1, 64<<10), Workload: none}),
	"translation": singleCell("translation", scenario.Spec{Machine: machineSpec(2, 64<<10), Workload: none}),
	"clustering": func(Options) *scenario.Grid {
		return &scenario.Grid{
			Name: "clustering",
			Base: scenario.Spec{Machine: machineSpec(1, 128<<10), Workload: none},
			Axes: []scenario.Axis{{Path: "machine.page_size", Values: scenario.Values(128, 256, 512)}},
		}
	},
	"asid": func(o Options) *scenario.Grid {
		refs := 60_000
		if o.Quick {
			refs = 12_000
		}
		return &scenario.Grid{
			Name: "asid",
			Base: scenario.Spec{
				Machine:  machineSpec(1, 128<<10),
				Workload: scenario.WorkloadSpec{Kind: scenario.WorkloadProfile, Profile: "edit", Refs: refs},
				Kernel:   &scenario.KernelSpec{Sched: &scenario.SchedSpec{Tasks: 2}},
			},
			Axes: []scenario.Axis{{Path: "kernel.sched.flush_on_switch", Values: scenario.Values(false, true)}},
		}
	},
	"pagecontention": pageContentionGrid,
	"spinfair":       singleCell("spinfair", scenario.Spec{Machine: machineSpec(4, 64<<10), Workload: none}),
	"assoc":          assocGrid,
	"app": func(Options) *scenario.Grid {
		return &scenario.Grid{
			Name: "app",
			Base: scenario.Spec{Machine: machineSpec(1, 128<<10), Workload: none,
				Kernel: &scenario.KernelSpec{UncachedPages: 1}},
			Axes: []scenario.Axis{{Path: "machine.processors", Values: scenario.Values(1, 2, 4, 6)}},
		}
	},
	"ipc": singleCell("ipc", scenario.Spec{Machine: machineSpec(2, 64<<10), Workload: none,
		Kernel: &scenario.KernelSpec{UncachedPages: 2}}),
	"workqueue": func(Options) *scenario.Grid {
		return &scenario.Grid{
			Name: "workqueue",
			Base: scenario.Spec{Machine: machineSpec(1, 64<<10), Workload: none,
				Kernel: &scenario.KernelSpec{UncachedPages: 1}},
			Axes: []scenario.Axis{{Path: "machine.processors", Values: scenario.Values(1, 2, 4, 6)}},
		}
	},
	"consistency": func(o Options) *scenario.Grid {
		return singleCell("consistency", scenario.Spec{
			Machine:  machineSpec(4, 128<<10),
			Workload: scenario.WorkloadSpec{Kind: scenario.WorkloadProfile, Profile: "edit", Refs: o.traceLen()},
		})(o)
	},
	"fault-sweep":      faultSweepGrid,
	"protocol-compare": protocolCompareGrid,
	"misscost": func(o Options) *scenario.Grid {
		return singleCell("misscost", scenario.Spec{
			Machine:  machineSpec(4, 128<<10),
			Workload: scenario.WorkloadSpec{Kind: scenario.WorkloadProfile, Profile: "edit", Refs: o.traceLen()},
			Obs:      scenario.ObsSpec{Stream: true},
		})(o)
	},
}

// Scenario returns the declarative Grid for a registered experiment:
// the machines and workloads it sweeps, as serializable data. The
// boolean reports whether the ID is registered.
func Scenario(id string, o Options) (*scenario.Grid, bool) {
	ctor, ok := scenarioGrids[id]
	if !ok {
		return nil, false
	}
	return ctor(o), true
}
