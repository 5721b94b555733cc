package workload

import (
	"vmp/internal/sim"
	"vmp/internal/trace"
)

// Standard virtual-address layout used by generated programs. User code,
// stack and heap live in the user region; kernel code and data live in
// the high "kernel virtual address space" region, which the VMP memory
// map makes part of every user address space.
const (
	UserCodeBase   = 0x0001_0000
	UserHeapBase   = 0x2000_0000
	UserStackTop   = 0x7ff0_0000
	KernelCodeBase = 0xc000_0000
	KernelDataBase = 0xc800_0000
	KernelStackTop = 0xcff0_0000
)

// ProgramConfig parameterizes a synthetic single-process reference
// stream. The defaults produced by the profile constructors resemble
// the mix in the paper's ATUM traces.
type ProgramConfig struct {
	Seed uint64
	ASID uint8

	// Code structure.
	NumFuncs     int     // number of distinct functions
	FuncSize     uint32  // bytes of code per function
	FuncZipfS    float64 // call-target skew (higher = hotter hot set)
	BlockLen     int     // mean basic-block length, instructions
	LoopProb     float64 // probability a block ends in a backward loop branch
	MeanLoopTrip int     // mean loop trip count
	CallProb     float64 // probability a block ends in a call

	// Data structure.
	DataRefProb float64 // probability an instruction carries a data ref
	WriteFrac   float64 // fraction of data refs that are writes
	StackFrac   float64 // fraction of data refs to the stack
	HotFrac     float64 // fraction of heap refs to the hot working set
	HotPages    int     // hot working-set size, 512-byte units
	HeapPages   int     // total heap size, 512-byte units (cold misses)
	HeapZipfS   float64 // skew across hot pages

	// Sequential sweeps (block copies, string ops, I/O buffers).
	SweepProb float64 // probability per instruction of starting a sweep
	SweepLen  int     // mean sweep length in bytes

	// Operating-system behaviour.
	SyscallEvery int     // mean instructions between kernel entries
	KernelBurst  int     // mean instructions per kernel entry
	KernelFuncs  int     // kernel code footprint, functions
	KernelPages  int     // kernel data footprint, 512-byte units
	KernelZipfS  float64 // kernel data skew (lower = poorer locality)
}

// Program is a trace.Source producing the synthetic reference stream.
type Program struct {
	cfg  ProgramConfig
	rnd  *sim.Rand
	fz   *Zipf // user call targets
	hz   *Zipf // hot heap pages
	kfz  *Zipf // kernel call targets
	kdz  *Zipf // kernel data pages
	mode mode

	pc        uint32 // current instruction address
	blockLeft int    // instructions left in current basic block
	stack     []frame
	sp        uint32 // simulated user stack pointer

	loopStart uint32
	loopLeft  int
	loopBody  int

	sweepAddr uint32
	sweepLeft int

	kernelLeft int    // instructions left in current kernel burst
	savedPC    uint32 // user pc saved across a kernel entry
	savedSP    uint32 // user sp saved across a kernel entry

	pendingData []trace.Ref // data refs queued behind the current ifetch
}

type frame struct {
	retPC uint32
	sp    uint32
}

type mode int

const (
	userMode mode = iota
	kernelMode
)

// NewProgram returns a generator for the given configuration.
func NewProgram(cfg ProgramConfig) *Program {
	if cfg.NumFuncs <= 0 || cfg.BlockLen <= 0 {
		panic("workload: ProgramConfig missing code structure")
	}
	p := &Program{
		cfg: cfg,
		rnd: sim.NewRand(cfg.Seed),
		fz:  NewZipf(cfg.NumFuncs, cfg.FuncZipfS),
		sp:  UserStackTop,
	}
	if cfg.HotPages > 0 {
		p.hz = NewZipf(cfg.HotPages, cfg.HeapZipfS)
	}
	if cfg.KernelFuncs > 0 {
		p.kfz = NewZipf(cfg.KernelFuncs, 1.1)
	}
	if cfg.KernelPages > 0 {
		p.kdz = NewZipf(cfg.KernelPages, cfg.KernelZipfS)
	}
	p.pc = p.funcBase(p.fz.Sample(p.rnd))
	p.blockLeft = p.nextBlockLen()
	return p
}

// Next implements trace.Source. The stream is unbounded; drain it with
// trace.Collect and a limit for a finite trace.
func (p *Program) Next() (trace.Ref, bool) {
	if len(p.pendingData) > 0 {
		r := p.pendingData[0]
		p.pendingData = p.pendingData[1:]
		return r, true
	}
	return p.instruction(), true
}

// instruction emits one instruction fetch and queues any data references
// that instruction performs.
func (p *Program) instruction() trace.Ref {
	super := p.mode == kernelMode
	ref := trace.Ref{Kind: trace.IFetch, Super: super, ASID: p.cfg.ASID, VAddr: p.pc}
	p.pc += 4
	p.queueData(super)
	p.advanceControl()
	return ref
}

func (p *Program) queueData(super bool) {
	if p.sweepLeft > 0 {
		// A sweep touches memory every instruction, sequentially.
		kind := trace.Read
		if p.rnd.Bool(0.5) {
			kind = trace.Write
		}
		p.pendingData = append(p.pendingData, trace.Ref{
			Kind: kind, Super: super, ASID: p.cfg.ASID, VAddr: p.sweepAddr,
		})
		p.sweepAddr += 4
		p.sweepLeft -= 4
		return
	}
	if !p.rnd.Bool(p.cfg.DataRefProb) {
		return
	}
	kind := trace.Read
	if p.rnd.Bool(p.cfg.WriteFrac) {
		kind = trace.Write
	}
	var addr uint32
	if super {
		addr = p.kernelDataAddr()
	} else {
		addr = p.userDataAddr()
	}
	p.pendingData = append(p.pendingData, trace.Ref{
		Kind: kind, Super: super, ASID: p.cfg.ASID, VAddr: addr,
	})
}

func (p *Program) userDataAddr() uint32 {
	u := p.rnd.Float64()
	switch {
	case u < p.cfg.StackFrac:
		// Near the top of the stack: tight locality.
		off := uint32(p.rnd.Intn(64)) * 4
		return p.sp - off
	case u < p.cfg.StackFrac+(1-p.cfg.StackFrac)*p.cfg.HotFrac && p.hz != nil:
		page := uint32(p.hz.Sample(p.rnd))
		return UserHeapBase + page*512 + uint32(p.rnd.Intn(128))*4
	default:
		if p.cfg.HeapPages <= 0 {
			return UserHeapBase
		}
		page := uint32(p.rnd.Intn(p.cfg.HeapPages))
		return UserHeapBase + page*512 + uint32(p.rnd.Intn(128))*4
	}
}

func (p *Program) kernelDataAddr() uint32 {
	if p.kdz == nil {
		return KernelDataBase
	}
	page := uint32(p.kdz.Sample(p.rnd))
	return KernelDataBase + page*512 + uint32(p.rnd.Intn(128))*4
}

func (p *Program) funcBase(i int) uint32 {
	return UserCodeBase + uint32(i)*p.cfg.FuncSize
}

func (p *Program) kernelFuncBase(i int) uint32 {
	return KernelCodeBase + uint32(i)*p.cfg.FuncSize
}

func (p *Program) nextBlockLen() int {
	return p.rnd.Geometric(1 / float64(p.cfg.BlockLen))
}

// advanceControl decides where the next instruction comes from: fall
// through within the block, loop back, call, return, branch within the
// function, or enter/leave the kernel.
func (p *Program) advanceControl() {
	// Kernel entry/exit bookkeeping.
	switch p.mode {
	case userMode:
		if p.cfg.SyscallEvery > 0 && p.rnd.Bool(1/float64(p.cfg.SyscallEvery)) {
			p.enterKernel()
			return
		}
	case kernelMode:
		p.kernelLeft--
		if p.kernelLeft <= 0 {
			p.leaveKernel()
			return
		}
	}

	// Sweeps start independently of block structure.
	if p.mode == userMode && p.sweepLeft <= 0 && p.cfg.SweepProb > 0 && p.rnd.Bool(p.cfg.SweepProb) {
		p.sweepLeft = int(float64(p.cfg.SweepLen) * (0.5 + p.rnd.Float64()))
		if p.cfg.HeapPages > 0 {
			p.sweepAddr = UserHeapBase + uint32(p.rnd.Intn(p.cfg.HeapPages))*512
		} else {
			p.sweepAddr = UserHeapBase
		}
	}

	p.blockLeft--
	if p.blockLeft > 0 {
		return
	}
	p.blockLeft = p.nextBlockLen()

	// Active loop: branch back until the trip count is exhausted.
	if p.loopLeft > 0 {
		p.loopLeft--
		if p.loopLeft > 0 {
			p.pc = p.loopStart
			p.blockLeft = p.loopBody
			return
		}
	}

	u := p.rnd.Float64()
	switch {
	case u < p.cfg.LoopProb:
		body := p.blockLeft
		p.loopBody = body
		p.loopStart = p.pc - uint32(4*body) // loop over the last block
		if p.loopStart < p.currentCodeBase() {
			p.loopStart = p.currentCodeBase()
		}
		p.loopLeft = p.rnd.Geometric(1 / float64(p.cfg.MeanLoopTrip))
		p.pc = p.loopStart
	case u < p.cfg.LoopProb+p.cfg.CallProb:
		p.call()
	case u < p.cfg.LoopProb+p.cfg.CallProb+0.15 && p.canReturn():
		p.ret()
	default:
		// Forward branch within the current function.
		p.pc = p.randomWithinFunc()
	}
}

func (p *Program) currentCodeBase() uint32 {
	if p.mode == kernelMode {
		return KernelCodeBase
	}
	return UserCodeBase
}

func (p *Program) randomWithinFunc() uint32 {
	base := p.pc - p.pc%p.cfg.FuncSize
	return base + uint32(p.rnd.Intn(int(p.cfg.FuncSize)/4))*4
}

func (p *Program) call() {
	p.stack = append(p.stack, frame{retPC: p.pc, sp: p.sp})
	p.sp -= uint32(16 + p.rnd.Intn(16)*4) // push a frame
	// Write the return address and saved registers.
	p.pendingData = append(p.pendingData, trace.Ref{
		Kind: trace.Write, Super: p.mode == kernelMode, ASID: p.cfg.ASID, VAddr: p.sp,
	})
	if p.mode == kernelMode && p.kfz != nil {
		p.pc = p.kernelFuncBase(p.kfz.Sample(p.rnd))
	} else {
		p.pc = p.funcBase(p.fz.Sample(p.rnd))
	}
	p.loopLeft = 0
}

// canReturn reports whether a return is legal here: there is a frame,
// and kernel code never returns into a user-mode frame (kernel exit is
// modeled by leaveKernel instead).
func (p *Program) canReturn() bool {
	if len(p.stack) == 0 {
		return false
	}
	if p.mode == kernelMode {
		return p.stack[len(p.stack)-1].retPC >= KernelCodeBase
	}
	return true
}

func (p *Program) ret() {
	f := p.stack[len(p.stack)-1]
	p.stack = p.stack[:len(p.stack)-1]
	p.pendingData = append(p.pendingData, trace.Ref{
		Kind: trace.Read, Super: p.mode == kernelMode, ASID: p.cfg.ASID, VAddr: p.sp,
	})
	p.pc, p.sp = f.retPC, f.sp
	p.loopLeft = 0
}

func (p *Program) enterKernel() {
	p.mode = kernelMode
	p.savedPC = p.pc
	p.savedSP = p.sp
	p.sp = KernelStackTop // the kernel runs on its own stack
	p.kernelLeft = p.rnd.Geometric(1 / float64(p.cfg.KernelBurst))
	if p.kfz != nil {
		p.pc = p.kernelFuncBase(p.kfz.Sample(p.rnd))
	} else {
		p.pc = KernelCodeBase
	}
	p.loopLeft = 0
	p.blockLeft = p.nextBlockLen()
}

func (p *Program) leaveKernel() {
	p.mode = userMode
	p.pc = p.savedPC
	// Unwind any frames pushed while in the kernel and restore the
	// user stack pointer.
	for len(p.stack) > 0 && p.stack[len(p.stack)-1].retPC >= KernelCodeBase {
		p.stack = p.stack[:len(p.stack)-1]
	}
	p.sp = p.savedSP
	p.loopLeft = 0
	p.blockLeft = p.nextBlockLen()
}
