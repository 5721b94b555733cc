package workload

import (
	"math"
	"testing"

	"vmp/internal/sim"
	"vmp/internal/trace"
)

func TestZipfRange(t *testing.T) {
	z := NewZipf(100, 1.0)
	r := sim.NewRand(1)
	for i := 0; i < 10000; i++ {
		v := z.Sample(r)
		if v < 0 || v >= 100 {
			t.Fatalf("sample %d out of range", v)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(50, 1.2)
	r := sim.NewRand(2)
	counts := make([]int, 50)
	const n = 50000
	for i := 0; i < n; i++ {
		counts[z.Sample(r)]++
	}
	if counts[0] <= counts[25] {
		t.Errorf("rank 0 (%d) not hotter than rank 25 (%d)", counts[0], counts[25])
	}
	// Rank 0 of a s=1.2 Zipf over 50 items carries >20% of the mass.
	if frac := float64(counts[0]) / n; frac < 0.15 {
		t.Errorf("rank-0 fraction %v too small for s=1.2", frac)
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	z := NewZipf(10, 0)
	r := sim.NewRand(3)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Sample(r)]++
	}
	for i, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-0.1) > 0.01 {
			t.Errorf("item %d frequency %v, want ~0.1", i, frac)
		}
	}
}

func TestZipfEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewZipf(0, 1) did not panic")
		}
	}()
	NewZipf(0, 1)
}

func TestProgramDeterministic(t *testing.T) {
	gen := func() []trace.Ref {
		src, err := New(Edit, 42)
		if err != nil {
			t.Fatal(err)
		}
		return trace.Collect(src, 5000)
	}
	a, b := gen(), gen()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ref %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestProgramSeedsDiffer(t *testing.T) {
	a, _ := Generate(Edit, 1, 2000)
	b, _ := Generate(Edit, 2, 2000)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical traces")
	}
}

// The supervisor fraction should be in the neighbourhood the paper
// reports for its ATUM traces (~25% of references).
func TestProfilesSupervisorFraction(t *testing.T) {
	for _, p := range Profiles() {
		st, err := Describe(p, 11, 100_000)
		if err != nil {
			t.Fatal(err)
		}
		f := st.SupervisorFraction()
		if f < 0.10 || f > 0.45 {
			t.Errorf("%s: supervisor fraction %.3f outside [0.10, 0.45]", p, f)
		}
	}
}

// Footprints must fit the studied cache range: comfortably above 64KB
// pressure but bounded (a few hundred KB), or Figure 4 cannot show the
// knee.
func TestProfilesFootprint(t *testing.T) {
	for _, p := range Profiles() {
		st, err := Describe(p, 11, DefaultTraceLen)
		if err != nil {
			t.Fatal(err)
		}
		fp := st.Footprint(256)
		if fp < 48<<10 || fp > 640<<10 {
			t.Errorf("%s: footprint %d KB outside [48, 640] KB", p, fp>>10)
		}
	}
}

func TestProfilesMix(t *testing.T) {
	for _, p := range Profiles() {
		st, err := Describe(p, 5, 100_000)
		if err != nil {
			t.Fatal(err)
		}
		ifrac := float64(st.IFetches) / float64(st.Refs)
		if ifrac < 0.5 || ifrac > 0.85 {
			t.Errorf("%s: ifetch fraction %.2f outside [0.5, 0.85]", p, ifrac)
		}
		if st.Writes == 0 || st.Reads == 0 {
			t.Errorf("%s: degenerate mix %+v", p, st)
		}
	}
}

func TestMultiUsesTwoASIDs(t *testing.T) {
	st, err := Describe(Multi, 9, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.ASIDs) < 2 {
		t.Errorf("multi profile used %d ASIDs, want >= 2", len(st.ASIDs))
	}
}

func TestUnknownProfile(t *testing.T) {
	if _, err := New(Profile("nope"), 1); err == nil {
		t.Error("unknown profile accepted")
	}
	if _, err := Generate(Profile("nope"), 1, 10); err == nil {
		t.Error("unknown profile accepted by Generate")
	}
	if _, err := Describe(Profile("nope"), 1, 10); err == nil {
		t.Error("unknown profile accepted by Describe")
	}
}

func TestKernelRefsInKernelRegion(t *testing.T) {
	refs, err := Generate(Edit, 21, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range refs {
		if r.Kind != trace.IFetch {
			continue
		}
		inKernel := r.VAddr >= KernelCodeBase
		if r.Super != inKernel {
			t.Fatalf("ifetch super=%v at %#x", r.Super, r.VAddr)
		}
	}
}

func TestUserDataBelowKernel(t *testing.T) {
	refs, err := Generate(Batch, 23, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range refs {
		if !r.Super && r.VAddr >= KernelCodeBase {
			t.Fatalf("user ref in kernel region: %v", r)
		}
	}
}

func TestPingPong(t *testing.T) {
	streams := PingPong(3, 0x8000, 5)
	if len(streams) != 3 {
		t.Fatal("wrong stream count")
	}
	for _, s := range streams {
		if len(s) != 10 {
			t.Fatalf("stream length %d, want 10", len(s))
		}
		for i, r := range s {
			if r.VAddr != 0x8000 {
				t.Fatal("ping-pong must hit one address")
			}
			wantKind := trace.Write
			if i%2 == 1 {
				wantKind = trace.Read
			}
			if r.Kind != wantKind {
				t.Fatalf("ref %d kind %v", i, r.Kind)
			}
		}
	}
}

func TestFalseSharingDistinctWordsSamePage(t *testing.T) {
	streams := FalseSharing(4, 0x10000, 256, 3)
	seen := map[uint32]bool{}
	for _, s := range streams {
		addr := s[0].VAddr
		if seen[addr] {
			t.Error("two processors share a word")
		}
		seen[addr] = true
		if addr/256 != 0x10000/256 {
			t.Error("words not on the same 256B page")
		}
	}
}

func TestMigratoryStreams(t *testing.T) {
	streams := MigratoryStreams(2, 0, 4, 6)
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	// 6 rounds × (4 reads + 4 writes) = 48 refs total.
	if total != 48 {
		t.Errorf("total refs %d, want 48", total)
	}
}

func TestReadSharing(t *testing.T) {
	streams := ReadSharing(2, 0x100, 64, 32)
	for _, s := range streams {
		for _, r := range s {
			if r.Kind != trace.Read {
				t.Fatal("non-read in read-sharing stream")
			}
			if r.VAddr < 0x100 || r.VAddr >= 0x100+64 {
				t.Fatalf("addr %#x out of region", r.VAddr)
			}
		}
	}
}
