package scenario

import (
	"bytes"
	"encoding/json"
	"testing"

	"vmp/internal/workload"
)

// TestTopologyFingerprintCompat pins the stanza's normalization rules:
// the single-bus default — spelled as no stanza, an empty stanza, or an
// explicit buses=1 — normalizes to the identical canonical form, so
// every historical Spec fingerprint is unchanged; a multi-bus shape
// moves the fingerprint and survives a canonical round-trip.
func TestTopologyFingerprintCompat(t *testing.T) {
	fpNone, err := Spec{}.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range []*TopologySpec{{}, {Buses: 1}, {Buses: 1, BoardsPerBus: 3}} {
		fp, err := Spec{Topology: ts}.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if fp != fpNone {
			t.Errorf("single-bus stanza %+v changed the fingerprint: %s vs %s", ts, fp, fpNone)
		}
	}

	multi := Spec{
		Machine:  MachineSpec{Processors: 8},
		Topology: &TopologySpec{Buses: 4},
	}
	fpMulti, err := multi.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fpMulti == fpNone {
		t.Error("multi-bus topology did not move the fingerprint")
	}

	// Round-trip: the canonical form re-parses to the same fingerprint,
	// with boards_per_bus resolved to the even spread.
	canon, err := multi.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSpec(canon)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Normalize(); err != nil {
		t.Fatal(err)
	}
	if back.Topology == nil || back.Topology.Buses != 4 || back.Topology.BoardsPerBus != 2 {
		t.Errorf("round-tripped topology = %+v, want buses=4 boards_per_bus=2", back.Topology)
	}
	fpBack, err := back.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fpBack != fpMulti {
		t.Errorf("canonical round trip moved the fingerprint: %s vs %s", fpBack, fpMulti)
	}

	// An explicit even spread and the auto-filled one are the same run.
	fpExplicit, err := Spec{
		Machine:  MachineSpec{Processors: 8},
		Topology: &TopologySpec{Buses: 4, BoardsPerBus: 2},
	}.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fpExplicit != fpMulti {
		t.Errorf("explicit boards_per_bus fingerprints differently: %s vs %s", fpExplicit, fpMulti)
	}
}

// TestTopologyValidation rejects unusable shapes through the spec
// layer's single validation path.
func TestTopologyValidation(t *testing.T) {
	bad := []Spec{
		// More boards than the inclusion filter's 64-bit presence mask.
		{Machine: MachineSpec{Processors: 80}, Topology: &TopologySpec{Buses: 4}},
		// Too few seats for the board count.
		{Machine: MachineSpec{Processors: 8}, Topology: &TopologySpec{Buses: 2, BoardsPerBus: 2}},
	}
	for i := range bad {
		if err := bad[i].Normalize(); err == nil {
			t.Errorf("spec %d normalized without error", i)
		}
	}
}

// TestRunGridMultiBusSerialParallel is the multi-bus determinism gate:
// sweeping topology.buses produces a byte-identical SweepResult (event
// digests included) at any worker count.
func TestRunGridMultiBusSerialParallel(t *testing.T) {
	grid := func() *Grid {
		return &Grid{
			Name: "topo-det",
			Base: Spec{
				Machine:  MachineSpec{Processors: 8, CacheSize: 32 << 10, PageSize: 256, Assoc: 2},
				Workload: WorkloadSpec{Refs: 2000},
				Obs:      ObsSpec{Stream: true},
			},
			Axes: []Axis{
				{Path: "topology.buses", Values: Values(1, 2, 4)},
				{Path: "topology.boards_per_bus", Values: Values(0, 4)},
			},
		}
	}
	serial, err := RunGrid(grid(), RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunGrid(grid(), RunOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	js, _ := json.Marshal(serial)
	jp, _ := json.Marshal(parallel)
	if !bytes.Equal(js, jp) {
		t.Fatalf("serial and parallel multi-bus sweeps differ:\n  %s\n  %s", js, jp)
	}
	if len(serial.Cells) != 6 {
		t.Fatalf("cells = %d, want 6", len(serial.Cells))
	}
	for _, c := range serial.Cells {
		if c.Err != "" {
			t.Errorf("cell %s failed: %s", c.Name, c.Err)
		}
		if c.Summary.Digest == "" {
			t.Errorf("cell %s has no digest", c.Name)
		}
	}
}

// TestKernelSlicesDisjoint: with the kernel region sliced per board, no
// 4 KB kernel page is touched by two boards and no kernel reference
// wraps past the top of the address space, at 16 and 64 boards on
// every profile. A 255-board spec is rejected: ASID i+1 would reach
// the kernel's 0xff.
func TestKernelSlicesDisjoint(t *testing.T) {
	const refs = 40_000
	for _, boards := range []int{16, 64} {
		for _, p := range workload.Profiles() {
			s := Spec{
				Machine:  MachineSpec{Processors: boards},
				Workload: WorkloadSpec{Profile: string(p), Refs: refs},
			}
			if err := s.Normalize(); err != nil {
				t.Fatal(err)
			}
			owner := make(map[uint32]int)
			shared := make(map[uint32]bool)
			wrapped := 0
			for i := 0; i < boards; i++ {
				sliced, err := boardRefs(&s, i)
				if err != nil {
					t.Fatal(err)
				}
				orig, err := workload.Generate(p, s.Seed+uint64(i)*31, refs)
				if err != nil {
					t.Fatal(err)
				}
				for j, r := range sliced {
					if orig[j].VAddr < workload.KernelCodeBase {
						continue
					}
					if r.VAddr < orig[j].VAddr {
						wrapped++
						continue
					}
					page := r.VAddr >> 12
					if b, ok := owner[page]; !ok {
						owner[page] = i
					} else if b != i {
						shared[page] = true
					}
				}
			}
			if len(shared) != 0 || wrapped != 0 {
				t.Errorf("%d boards, %s: %d kernel pages touched by more than one board, %d wrapped kernel refs",
					boards, p, len(shared), wrapped)
			}
		}
	}

	s := Spec{Machine: MachineSpec{Processors: 255}}
	if err := s.Normalize(); err == nil {
		t.Error("255-board profile spec accepted")
	}
}
