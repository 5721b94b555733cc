package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vmp/internal/core"
	"vmp/internal/sim"
)

// fullSpec exercises every serializable field: kernel + scheduler,
// fault plan, obs stream, timing override.
func fullSpec() Spec {
	return Spec{
		Name: "full",
		Seed: 42,
		Machine: MachineSpec{
			Processors: 3,
			CacheSize:  64 << 10,
			PageSize:   128,
			Assoc:      2,
			MemorySize: 4 << 20,
			FIFODepth:  64,
			Timing:     &core.Timing{InstrTime: 500 * sim.Nanosecond, RefsPerInstr: 1.5},
		},
		Workload: WorkloadSpec{
			Kind:    WorkloadProfile,
			Profile: "compile",
			Refs:    5000,
		},
		Kernel: &KernelSpec{
			UncachedPages: 2,
			Sched:         &SchedSpec{Tasks: 3, QuantumUS: 500, FlushOnSwitch: true},
		},
		Faults: "abort=0.05,fifo=2",
		Obs:    ObsSpec{Stream: true, RingSize: 512},
	}
}

// TestSpecRoundTrip proves Spec -> JSON -> Spec is lossless: the
// re-parsed spec is deeply equal to the normalized original, and a
// second canonicalization is byte-identical.
func TestSpecRoundTrip(t *testing.T) {
	s := fullSpec()
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&s, back) {
		t.Fatalf("round trip changed the spec:\n  orig %+v\n  back %+v", s, *back)
	}

	c1, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := back.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1, c2) {
		t.Fatalf("canonical forms differ:\n  %s\n  %s", c1, c2)
	}
}

// TestNormalizeDefaults checks the zero spec fills to the documented
// defaults and that Normalize is idempotent.
func TestNormalizeDefaults(t *testing.T) {
	var s Spec
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if s.Version != Version {
		t.Errorf("Version = %d, want %d", s.Version, Version)
	}
	if s.Seed != 11 {
		t.Errorf("Seed = %d, want 11", s.Seed)
	}
	if s.Machine.Processors != 1 || s.Machine.CacheSize != 128<<10 ||
		s.Machine.PageSize != 256 || s.Machine.Assoc != 4 || s.Machine.MemorySize != 8<<20 {
		t.Errorf("machine defaults wrong: %+v", s.Machine)
	}
	if s.Workload.Kind != WorkloadProfile || s.Workload.Profile != "edit" || s.Workload.Refs != 200_000 {
		t.Errorf("workload defaults wrong: %+v", s.Workload)
	}
	before := s
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, s) {
		t.Errorf("Normalize is not idempotent:\n  %+v\n  %+v", before, s)
	}
}

// TestNormalizeCanonicalizesFaults checks equivalent fault plans (and
// the implied watchdog) normalize identically, so they fingerprint
// identically.
func TestNormalizeCanonicalizesFaults(t *testing.T) {
	a := Spec{Faults: "fifo=2,abort=0.05"}
	b := Spec{Faults: "abort=0.050,fifo=2"}
	fa, err := a.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fb, err := b.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fa != fb {
		t.Errorf("equivalent fault plans fingerprint differently: %s vs %s", fa, fb)
	}
	if err := a.Normalize(); err != nil {
		t.Fatal(err)
	}
	if !a.Check {
		t.Error("enabled fault plan did not imply Check")
	}
	none := Spec{Faults: "none"}
	if err := none.Normalize(); err != nil {
		t.Fatal(err)
	}
	if none.Faults != "" {
		t.Errorf("Faults = %q after normalizing \"none\", want empty", none.Faults)
	}
}

// TestNormalizeProtocol pins the protocol field's canonicalization:
// the default spelling drops out of the canonical form (so historical
// fingerprints are stable), variants survive normalization and move
// the fingerprint, and unknown names are rejected.
func TestNormalizeProtocol(t *testing.T) {
	def := Spec{Protocol: "vmp2"}
	if err := def.Normalize(); err != nil {
		t.Fatal(err)
	}
	if def.Protocol != "" {
		t.Errorf("Protocol = %q after normalizing the default, want empty", def.Protocol)
	}
	fpEmpty, err := Spec{}.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fpDefault, err := Spec{Protocol: "vmp2"}.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fpEmpty != fpDefault {
		t.Errorf("explicit default protocol changed the fingerprint: %s vs %s", fpDefault, fpEmpty)
	}
	fp3, err := Spec{Protocol: "vmp3"}.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp3 == fpEmpty {
		t.Error("protocol vmp3 did not change the fingerprint")
	}
	v := Spec{Protocol: "rlt"}
	if err := v.Normalize(); err != nil {
		t.Fatal(err)
	}
	if v.Protocol != "rlt" {
		t.Errorf("Protocol = %q after normalizing rlt", v.Protocol)
	}
	bad := Spec{Protocol: "mesi"}
	if err := bad.Normalize(); err == nil {
		t.Error("Normalize accepted unknown protocol")
	}
}

// TestFingerprintSensitivity checks the fingerprint moves with meaning
// and stays put without it.
func TestFingerprintSensitivity(t *testing.T) {
	base := fullSpec()
	fp1, err := base.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := base.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Errorf("fingerprint not stable: %s vs %s", fp1, fp2)
	}
	changed := fullSpec()
	changed.Seed++
	fp3, err := changed.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp3 == fp1 {
		t.Error("seed change did not change the fingerprint")
	}
}

// TestFingerprintDoesNotMutate pins that fingerprinting (which
// normalizes a copy) leaves the original spec untouched, including
// through pointer fields.
func TestFingerprintDoesNotMutate(t *testing.T) {
	s := Spec{Kernel: &KernelSpec{}}
	if _, err := s.Fingerprint(); err != nil {
		t.Fatal(err)
	}
	if s.Seed != 0 || s.Machine.Processors != 0 {
		t.Errorf("Fingerprint mutated the spec: %+v", s)
	}
	if s.Kernel.UncachedPages != 0 {
		t.Errorf("Fingerprint mutated through the Kernel pointer: %+v", *s.Kernel)
	}
}

// TestNormalizeRejections exercises the spec-level validation errors.
func TestNormalizeRejections(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"future version", Spec{Version: Version + 1}, "unsupported spec version"},
		{"unknown profile", Spec{Workload: WorkloadSpec{Profile: "fuzzy"}}, "unknown workload profile"},
		{"unknown kind", Spec{Workload: WorkloadSpec{Kind: "quantum"}}, "unknown workload kind"},
		{"trace without file", Spec{Workload: WorkloadSpec{Kind: WorkloadTrace}}, "requires trace_file"},
		{"asm without source", Spec{Workload: WorkloadSpec{Kind: WorkloadAsm}}, "requires asm source"},
		{"unaligned asm base", Spec{Workload: WorkloadSpec{Kind: WorkloadAsm, Asm: "halt", AsmBase: 0x1002}}, "unaligned asm_base"},
		{"negative refs", Spec{Workload: WorkloadSpec{Refs: -1}}, "negative refs"},
		{"sched on asm", Spec{
			Workload: WorkloadSpec{Kind: WorkloadAsm, Asm: "halt"},
			Kernel:   &KernelSpec{Sched: &SchedSpec{}},
		}, "requires a profile or trace workload"},
		{"ASID exhaustion", Spec{
			Machine: MachineSpec{Processors: 64},
			Kernel:  &KernelSpec{Sched: &SchedSpec{Tasks: 8}},
		}, "usable ASIDs"},
		{"bad fault plan", Spec{Faults: "abort=yes"}, "fault"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Normalize()
			if err == nil {
				t.Fatalf("Normalize accepted %+v", tc.spec)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestNormalizeMachineErrors checks machine-geometry problems surface
// as core.ConfigError through the single centralized validator.
func TestNormalizeMachineErrors(t *testing.T) {
	s := Spec{Machine: MachineSpec{PageSize: 100}}
	err := s.Normalize()
	var ce *core.ConfigError
	if !errors.As(err, &ce) || ce.Field != "Cache.PageSize" {
		t.Fatalf("err = %v, want ConfigError on Cache.PageSize", err)
	}
}

// TestParseSpecUnknownField checks a typo fails loudly.
func TestParseSpecUnknownField(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"machine": {"procesors": 4}}`)); err == nil {
		t.Fatal("ParseSpec accepted an unknown field")
	}
}

// FuzzSpec fuzzes the Spec JSON boundary: any document ParseSpec
// accepts and Normalize validates has a canonical form that is a fixed
// point (re-parsing and re-canonicalizing it changes nothing) and a
// fingerprint that survives the round trip.
func FuzzSpec(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	full, err := json.Marshal(fullSpec())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		canon, err := s.Canonical()
		if err != nil {
			return
		}
		fp, err := s.Fingerprint()
		if err != nil {
			t.Fatalf("canonical form but no fingerprint: %v", err)
		}
		back, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %v\n%s", err, canon)
		}
		again, err := back.Canonical()
		if err != nil {
			t.Fatalf("canonical form does not re-normalize: %v\n%s", err, canon)
		}
		if !bytes.Equal(again, canon) {
			t.Fatalf("canonical form is not a fixed point:\n%s\n%s", canon, again)
		}
		if fp2, err := back.Fingerprint(); err != nil || fp2 != fp {
			t.Fatalf("fingerprint %s became %s (%v) across the round trip", fp, fp2, err)
		}
	})
}
