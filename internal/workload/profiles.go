package workload

import (
	"fmt"

	"vmp/internal/trace"
)

// Profile names the four ATUM-like synthetic traces used to reproduce
// Figure 4. Each is a different mix of code footprint, data working set,
// kernel activity and multiprogramming, standing in for the four VAX
// 8200 / VMS traces the paper used.
type Profile string

// The four standard trace profiles.
const (
	// Edit: interactive editing session — small hot code, small data
	// working set, frequent short syscalls.
	Edit Profile = "edit"
	// Compile: compiler run — larger code footprint, sequential sweeps
	// over source buffers, moderate kernel activity.
	Compile Profile = "compile"
	// Batch: numeric batch job — loop-heavy code, larger data working
	// set, few syscalls.
	Batch Profile = "batch"
	// Multi: two user processes timesliced with kernel scheduling
	// between them — exercises ASID tagging and multiprogramming.
	Multi Profile = "multi"
)

// Profiles lists all standard profiles in a stable order.
func Profiles() []Profile { return []Profile{Edit, Compile, Batch, Multi} }

// DefaultTraceLen matches the middle of the paper's trace lengths
// (358,000-540,000 references).
const DefaultTraceLen = 450_000

// New returns an unbounded source for the named profile. Use Generate
// (or trace.Collect with a limit) for a finite trace.
func New(p Profile, seed uint64) (trace.Source, error) {
	switch p {
	case Edit:
		return NewProgram(editConfig(seed)), nil
	case Compile:
		return NewProgram(compileConfig(seed)), nil
	case Batch:
		return NewProgram(batchConfig(seed)), nil
	case Multi:
		a := NewProgram(multiUserConfig(seed, 1))
		b := NewProgram(multiUserConfig(seed+7777, 2))
		// Timeslices of ~30k references model coarse multiprogramming.
		return trace.Interleave([]trace.Source{a, b}, []int{30_000, 30_000}), nil
	default:
		return nil, fmt.Errorf("workload: unknown profile %q", p)
	}
}

// Generate materializes n references of the named profile (n <= 0 uses
// DefaultTraceLen).
func Generate(p Profile, seed uint64, n int) ([]trace.Ref, error) {
	src, err := New(p, seed)
	if err != nil {
		return nil, err
	}
	if n <= 0 {
		n = DefaultTraceLen
	}
	return trace.Collect(src, n), nil
}

func baseConfig(seed uint64) ProgramConfig {
	return ProgramConfig{
		Seed:         seed,
		ASID:         1,
		NumFuncs:     20,
		FuncSize:     2048,
		FuncZipfS:    1.2,
		BlockLen:     8,
		LoopProb:     0.35,
		MeanLoopTrip: 12,
		CallProb:     0.10,
		DataRefProb:  0.45,
		WriteFrac:    0.30,
		StackFrac:    0.40,
		HotFrac:      0.965,
		HotPages:     40, // 20 KB hot data
		HeapPages:    96,
		HeapZipfS:    0.9,
		SweepProb:    0.00015,
		SweepLen:     2048,
		SyscallEvery: 400,
		KernelBurst:  130,
		KernelFuncs:  24,
		KernelPages:  64,
		KernelZipfS:  0.8,
	}
}

func editConfig(seed uint64) ProgramConfig {
	cfg := baseConfig(seed)
	cfg.NumFuncs = 16
	cfg.HotPages = 24
	cfg.HeapPages = 64
	cfg.SyscallEvery = 250
	cfg.KernelBurst = 110
	return cfg
}

func compileConfig(seed uint64) ProgramConfig {
	cfg := baseConfig(seed)
	cfg.NumFuncs = 36
	cfg.FuncZipfS = 1.1
	cfg.HotPages = 48
	cfg.HeapPages = 128
	cfg.SweepProb = 0.0004
	cfg.SweepLen = 3072
	cfg.SyscallEvery = 500
	cfg.KernelBurst = 160
	return cfg
}

func batchConfig(seed uint64) ProgramConfig {
	cfg := baseConfig(seed)
	cfg.NumFuncs = 20
	cfg.LoopProb = 0.45
	cfg.MeanLoopTrip = 24
	cfg.HotPages = 64
	cfg.HeapPages = 160
	cfg.HotFrac = 0.88
	cfg.SyscallEvery = 900
	cfg.KernelBurst = 190
	return cfg
}

func multiUserConfig(seed uint64, asid uint8) ProgramConfig {
	cfg := baseConfig(seed)
	cfg.ASID = asid
	cfg.NumFuncs = 16
	cfg.HotPages = 24
	cfg.HeapPages = 72
	cfg.SyscallEvery = 350
	return cfg
}

// Describe runs the generator for n refs and returns its trace.Stats,
// useful for verifying a profile matches the ATUM characteristics.
func Describe(p Profile, seed uint64, n int) (*trace.Stats, error) {
	src, err := New(p, seed)
	if err != nil {
		return nil, err
	}
	if n <= 0 {
		n = DefaultTraceLen
	}
	return trace.Summarize(src, n), nil
}
