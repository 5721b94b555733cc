package isa

import (
	"strings"
	"testing"

	"vmp/internal/cache"
	"vmp/internal/core"
	"vmp/internal/sim"
)

func newMachine(t *testing.T, procs int) *core.Machine {
	t.Helper()
	m, err := core.NewMachine(core.Config{
		Processors: procs,
		Cache:      cache.Geometry(64<<10, 256, 4),
		MemorySize: 4 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mustAssemble(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func runOne(t *testing.T, src string, cfg RunConfig) Result {
	t.Helper()
	m := newMachine(t, 1)
	prog := mustAssemble(t, src)
	if cfg.Base == 0 {
		cfg.Base = 0x10000
	}
	var res Result
	var rerr error
	if err := Run(m, 0, 1, prog, cfg, func(r Result, err error) { res, rerr = r, err }); err != nil {
		t.Fatal(err)
	}
	m.Run()
	if rerr != nil {
		t.Fatal(rerr)
	}
	if v := m.CheckInvariants(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	return res
}

func TestExecArithmetic(t *testing.T) {
	res := runOne(t, `
		addi r1, r0, 40
		addi r2, r0, 2
		add  r3, r1, r2
		sub  r4, r1, r2
		xor  r5, r1, r1
		slt  r6, r2, r1
		halt
	`, RunConfig{})
	if res.Regs[3] != 42 || res.Regs[4] != 38 || res.Regs[5] != 0 || res.Regs[6] != 1 {
		t.Errorf("regs: %v", res.Regs[:8])
	}
}

func TestExecR0Hardwired(t *testing.T) {
	res := runOne(t, `
		addi r0, r0, 99
		add  r1, r0, r0
		halt
	`, RunConfig{})
	if res.Regs[0] != 0 || res.Regs[1] != 0 {
		t.Errorf("r0 = %d, r1 = %d", res.Regs[0], res.Regs[1])
	}
}

func TestExecLoop(t *testing.T) {
	// Sum 1..10.
	res := runOne(t, `
		addi r1, r0, 10   ; counter
		addi r2, r0, 0    ; sum
	loop:
		add  r2, r2, r1
		addi r1, r1, -1
		bne  r1, r0, loop
		halt
	`, RunConfig{})
	if res.Regs[2] != 55 {
		t.Errorf("sum = %d, want 55", res.Regs[2])
	}
}

func TestExecMemory(t *testing.T) {
	res := runOne(t, `
		li   r10, 0x20000     ; data area
		addi r1, r0, 1234
		sw   r1, 0(r10)
		sw   r1, 4(r10)
		lw   r2, 0(r10)
		lw   r3, 4(r10)
		add  r4, r2, r3
		halt
	`, RunConfig{})
	if res.Regs[4] != 2468 {
		t.Errorf("r4 = %d", res.Regs[4])
	}
}

func TestExecShifts(t *testing.T) {
	res := runOne(t, `
		addi r1, r0, 1
		addi r2, r0, 10
		sll  r3, r1, r2    ; 1 << 10
		srl  r4, r3, r2    ; back to 1
		halt
	`, RunConfig{})
	if res.Regs[3] != 1024 || res.Regs[4] != 1 {
		t.Errorf("shifts: %d %d", res.Regs[3], res.Regs[4])
	}
}

func TestExecLILarge(t *testing.T) {
	res := runOne(t, `
		li r1, 0x1234abcd
		li r2, 0x00030000
		halt
	`, RunConfig{})
	if res.Regs[1] != 0x1234abcd {
		t.Errorf("li large: %#x", res.Regs[1])
	}
	if res.Regs[2] != 0x00030000 {
		t.Errorf("li mid: %#x", res.Regs[2])
	}
}

func TestExecCallReturn(t *testing.T) {
	res := runOne(t, `
		addi r1, r0, 7
		jal  ra, double
		jal  ra, double
		halt
	double:
		add  r1, r1, r1
		jr   ra
	`, RunConfig{})
	if res.Regs[1] != 28 {
		t.Errorf("r1 = %d, want 28", res.Regs[1])
	}
}

func TestExecStack(t *testing.T) {
	res := runOne(t, `
		addi r1, r0, 11
		sw   r1, -4(sp)
		addi sp, sp, -4
		addi r1, r0, 22
		lw   r2, 0(sp)
		addi sp, sp, 4
		add  r3, r1, r2
		halt
	`, RunConfig{SP: 0x30000})
	if res.Regs[3] != 33 {
		t.Errorf("r3 = %d", res.Regs[3])
	}
}

func TestExecSyscall(t *testing.T) {
	m := newMachine(t, 1)
	prog := mustAssemble(t, `
		addi r1, r0, 5
		sys  9
		halt
	`)
	var sysN int32
	var sawR1 uint32
	cfg := RunConfig{
		Base: 0x10000,
		Syscall: func(c *core.CPU, regs *[16]uint32, n int32) {
			sysN = n
			sawR1 = regs[1]
			regs[2] = 77 // services can write registers
		},
	}
	var res Result
	if err := Run(m, 0, 1, prog, cfg, func(r Result, err error) { res = r }); err != nil {
		t.Fatal(err)
	}
	m.Run()
	if sysN != 9 || sawR1 != 5 {
		t.Errorf("sys saw n=%d r1=%d", sysN, sawR1)
	}
	if res.Regs[2] != 77 {
		t.Errorf("syscall result not visible: %d", res.Regs[2])
	}
}

func TestExecRunawayAborts(t *testing.T) {
	m := newMachine(t, 1)
	prog := mustAssemble(t, "loop: b loop")
	var rerr error
	if err := Run(m, 0, 1, prog, RunConfig{Base: 0x10000, MaxSteps: 500},
		func(_ Result, err error) { rerr = err }); err != nil {
		t.Fatal(err)
	}
	m.Run()
	if rerr == nil {
		t.Error("runaway loop did not abort")
	}
}

func TestExecTimingThroughCache(t *testing.T) {
	// The second run of a loop body must not miss: code is cached.
	m := newMachine(t, 1)
	prog := mustAssemble(t, `
		addi r1, r0, 100
	loop:
		addi r1, r1, -1
		bne  r1, r0, loop
		halt
	`)
	var res Result
	if err := Run(m, 0, 1, prog, RunConfig{Base: 0x10000},
		func(r Result, _ error) { res = r }); err != nil {
		t.Fatal(err)
	}
	m.Run()
	cs := m.Boards[0].Cache.Stats()
	if cs.Misses > 10 {
		t.Errorf("a tight loop missed %d times", cs.Misses)
	}
	if res.Steps != 202 {
		t.Errorf("steps = %d", res.Steps)
	}
}

// Two processors run assembly spin-lock code against one lock word;
// the protected counter must be exact — mutual exclusion provided by
// TAS through the ownership protocol, all in machine code.
func TestExecSpinLockTwoCPUs(t *testing.T) {
	m := newMachine(t, 2)
	const iters = 20
	src := `
		li   r10, 0x20000    ; lock
		li   r11, 0x20100    ; counter (different cache page)
		addi r5, r0, 20      ; iterations
	outer:
	acquire:
		tas  r1, (r10)
		beq  r1, r0, got
		b    acquire
	got:
		lw   r2, 0(r11)
		addi r2, r2, 1
		sw   r2, 0(r11)
		sw   r0, 0(r10)      ; release
		addi r5, r5, -1
		bne  r5, r0, outer
		halt
	`
	prog := mustAssemble(t, src)
	results := make([]Result, 2)
	for i := 0; i < 2; i++ {
		i := i
		if err := Run(m, i, 1, prog, RunConfig{Base: 0x10000},
			func(r Result, err error) {
				if err != nil {
					t.Error(err)
				}
				results[i] = r
			}); err != nil {
			t.Fatal(err)
		}
	}
	m.Run()
	if v := m.CheckInvariants(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	w, err := m.VM.Translate(1, 0x20100, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Mem.ReadWord(w.PAddr); got != 2*iters {
		t.Errorf("counter = %d, want %d", got, 2*iters)
	}
	_, bs := m.TotalStats()
	if bs.InvalidationsIn == 0 && bs.DowngradesIn == 0 {
		t.Error("no ownership migration between the assembly programs")
	}
	_ = sim.Time(0)
}

// Four processors with exponential backoff in the spin loop: without
// backoff the lock holder can starve behind the spinners' lock-page
// ping-pong (the Section 5.4 pathology); with it, everyone finishes.
func TestExecSpinLockBackoff4CPUs(t *testing.T) {
	m := newMachine(t, 4)
	src := `
		li   r10, 0x20000
		li   r11, 0x20100
		addi r5, r0, 15
	outer:
		addi r6, r0, 4
	acquire:
		tas  r1, (r10)
		beq  r1, r0, got
		add  r7, r6, r0
	back:
		addi r7, r7, -1
		bne  r7, r0, back
		add  r6, r6, r6
		slti r8, r6, 512
		bne  r8, r0, acquire
		addi r6, r0, 512
		b    acquire
	got:
		lw   r2, 0(r11)
		addi r2, r2, 1
		sw   r2, 0(r11)
		sw   r0, 0(r10)
		addi r5, r5, -1
		bne  r5, r0, outer
		halt
	`
	prog := mustAssemble(t, src)
	for i := 0; i < 4; i++ {
		if err := Run(m, i, 1, prog, RunConfig{Base: 0x10000, MaxSteps: 3_000_000},
			func(_ Result, err error) {
				if err != nil {
					t.Error(err)
				}
			}); err != nil {
			t.Fatal(err)
		}
	}
	m.Run()
	if v := m.CheckInvariants(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	w, err := m.VM.Translate(1, 0x20100, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Mem.ReadWord(w.PAddr); got != 4*15 {
		t.Errorf("counter = %d, want 60", got)
	}
}

func TestExecMulDivRem(t *testing.T) {
	res := runOne(t, `
		addi r1, r0, 37
		addi r2, r0, 5
		mul  r3, r1, r2    ; 185
		div  r4, r1, r2    ; 7
		rem  r5, r1, r2    ; 2
		div  r6, r1, r0    ; 0 (division by zero)
		rem  r7, r1, r0    ; 37
		halt
	`, RunConfig{})
	want := []uint32{0, 37, 5, 185, 7, 2, 0, 37}
	for i, w := range want {
		if res.Regs[i] != w {
			t.Errorf("r%d = %d, want %d", i, res.Regs[i], w)
		}
	}
}

func TestDisassemble(t *testing.T) {
	p := mustAssemble(t, "start: addi r1, r0, 1\nhalt\n.entry start")
	out := p.Disassemble()
	if !strings.Contains(out, "=>") || !strings.Contains(out, "addi r1, r0, 1") || !strings.Contains(out, "halt") {
		t.Errorf("disassembly:\n%s", out)
	}
}

// Two machine-code threads timesliced on ONE board: each sums its own
// range; both finish with correct results, and the ASID tag keeps both
// working sets cached across preemptions.
func TestThreadsTimesliceOneBoard(t *testing.T) {
	m := newMachine(t, 1)
	src := `
		; r10 = my data base (set via sys 2 by the host), sum 1..100
		sys  2
		addi r1, r0, 100
		addi r2, r0, 0
	loop:
		add  r2, r2, r1
		addi r1, r1, -1
		bne  r1, r0, loop
		sw   r2, 0(r10)
		halt
	`
	prog := mustAssemble(t, src)
	var threads []*Thread
	for i := 0; i < 3; i++ {
		asid := uint8(i + 1)
		if err := Load(m, asid, prog, 0x10000); err != nil {
			t.Fatal(err)
		}
		if err := m.Prefault(asid, []uint32{0x40000}); err != nil {
			t.Fatal(err)
		}
		i := i
		cfg := RunConfig{Base: 0x10000, MaxSteps: 100_000,
			Syscall: func(c *core.CPU, regs *[16]uint32, n int32) {
				if n == 2 {
					regs[10] = 0x40000 + uint32(i)*0 // same VA, distinct ASID
				}
			}}
		threads = append(threads, NewThread(asid, prog, cfg))
	}
	// Round-robin 40-instruction slices, writing the ASID register on
	// each switch and never flushing the cache.
	doneRan := false
	m.RunProgram(0, func(c *core.CPU) {
		for live := len(threads); live > 0; {
			live = 0
			for _, th := range threads {
				if th.Halted() {
					continue
				}
				live++
				c.SetASID(th.ASID)
				c.Compute(50) // context-switch software cost
				for i := 0; i < 40 && !th.Step(c); i++ {
				}
			}
		}
		doneRan = true
	})
	m.Run()
	if !doneRan {
		t.Fatal("scheduler never finished")
	}
	for i, th := range threads {
		if th.Err() != nil {
			t.Fatalf("thread %d: %v", i, th.Err())
		}
		if got := th.Result().Regs[2]; got != 5050 {
			t.Errorf("thread %d sum = %d", i, got)
		}
		// Each thread's store went to its own address space.
		w, err := m.VM.Translate(uint8(i+1), 0x40000, false, false)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Mem.ReadWord(w.PAddr); got != 5050 {
			t.Errorf("thread %d stored %d in its space", i, got)
		}
	}
	if v := m.CheckInvariants(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

func TestThreadStepAfterHalt(t *testing.T) {
	m := newMachine(t, 1)
	prog := mustAssemble(t, "halt")
	if err := Load(m, 1, prog, 0x1000); err != nil {
		t.Fatal(err)
	}
	th := NewThread(1, prog, RunConfig{Base: 0x1000, MaxSteps: 10})
	m.RunProgram(0, func(c *core.CPU) {
		c.SetASID(1)
		if !th.Step(c) {
			t.Error("halt not reported")
		}
		if !th.Step(c) {
			t.Error("step after halt not terminal")
		}
	})
	m.Run()
	if !th.Halted() || th.Err() != nil {
		t.Errorf("halted=%v err=%v", th.Halted(), th.Err())
	}
}

func TestThreadMaxSteps(t *testing.T) {
	m := newMachine(t, 1)
	prog := mustAssemble(t, "loop: b loop")
	if err := Load(m, 1, prog, 0x1000); err != nil {
		t.Fatal(err)
	}
	th := NewThread(1, prog, RunConfig{Base: 0x1000, MaxSteps: 25})
	m.RunProgram(0, func(c *core.CPU) {
		c.SetASID(1)
		for !th.Step(c) {
		}
	})
	m.Run()
	if th.Err() == nil {
		t.Error("runaway thread had no error")
	}
}
