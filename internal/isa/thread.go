package isa

import (
	"fmt"

	"vmp/internal/core"
)

// Thread is a resumable machine-code execution context: program
// counter, register file and configuration. A scheduler can interleave
// several threads on one board by calling Step in timeslices — the
// processor state is tiny (the paper's §7 "registers available for the
// trap handler" point), and the cache's ASID tag keeps each thread's
// working set live across preemption.
type Thread struct {
	ASID uint8
	prog *Program
	cfg  RunConfig
	pc   uint32
	regs [16]uint32

	halted bool
	steps  uint64
	err    error
}

// NewThread prepares an execution context for an already-loaded
// program.
func NewThread(asid uint8, prog *Program, cfg RunConfig) *Thread {
	t := &Thread{ASID: asid, prog: prog, cfg: cfg, pc: cfg.Base + prog.Entry*4}
	t.regs[15] = cfg.SP
	return t
}

// Halted reports whether the thread has executed HALT (or died).
func (t *Thread) Halted() bool { return t.halted }

// Err returns the execution error, if any.
func (t *Thread) Err() error { return t.err }

// Result returns the final state; valid once Halted.
func (t *Thread) Result() Result { return Result{Regs: t.regs, Steps: t.steps, PC: t.pc} }

// Step executes one instruction on the given CPU (whose ASID must have
// been set to the thread's). It returns true when the thread halts.
func (t *Thread) Step(c *core.CPU) bool {
	if t.halted {
		return true
	}
	if t.cfg.MaxSteps > 0 && t.steps >= t.cfg.MaxSteps {
		t.halted = true
		t.err = fmt.Errorf("isa: thread exceeded %d steps", t.cfg.MaxSteps)
		return true
	}
	in := Decode(c.Load(t.pc))
	next := t.pc + 4
	rd32 := func(r uint8) uint32 { return t.regs[r] }
	wr := func(r uint8, v uint32) {
		if r != 0 {
			t.regs[r] = v
		}
	}
	t.steps++
	switch in.Op {
	case NOP:
	case HALT:
		t.halted = true
		return true
	case ADD:
		wr(in.Rd, rd32(in.Rs1)+rd32(in.Rs2))
	case SUB:
		wr(in.Rd, rd32(in.Rs1)-rd32(in.Rs2))
	case AND:
		wr(in.Rd, rd32(in.Rs1)&rd32(in.Rs2))
	case OR:
		wr(in.Rd, rd32(in.Rs1)|rd32(in.Rs2))
	case XOR:
		wr(in.Rd, rd32(in.Rs1)^rd32(in.Rs2))
	case SLL:
		wr(in.Rd, rd32(in.Rs1)<<(rd32(in.Rs2)&31))
	case SRL:
		wr(in.Rd, rd32(in.Rs1)>>(rd32(in.Rs2)&31))
	case SLT:
		wr(in.Rd, boolTo(int32(rd32(in.Rs1)) < int32(rd32(in.Rs2))))
	case MUL:
		wr(in.Rd, rd32(in.Rs1)*rd32(in.Rs2))
	case DIV:
		if d := rd32(in.Rs2); d != 0 {
			wr(in.Rd, rd32(in.Rs1)/d)
		} else {
			wr(in.Rd, 0)
		}
	case REM:
		if d := rd32(in.Rs2); d != 0 {
			wr(in.Rd, rd32(in.Rs1)%d)
		} else {
			wr(in.Rd, rd32(in.Rs1))
		}
	case ADDI:
		wr(in.Rd, rd32(in.Rs1)+uint32(in.Imm))
	case ANDI:
		wr(in.Rd, rd32(in.Rs1)&uint32(in.Imm))
	case ORI:
		wr(in.Rd, rd32(in.Rs1)|uint32(in.Imm)&immMask)
	case XORI:
		wr(in.Rd, rd32(in.Rs1)^uint32(in.Imm)&immMask)
	case SLTI:
		wr(in.Rd, boolTo(int32(rd32(in.Rs1)) < in.Imm))
	case LUI:
		wr(in.Rd, uint32(in.Imm)<<18)
	case LW:
		wr(in.Rd, c.Load(rd32(in.Rs1)+uint32(in.Imm)))
	case SW:
		c.Store(rd32(in.Rs1)+uint32(in.Imm), rd32(in.Rd))
	case TAS:
		wr(in.Rd, c.TAS(rd32(in.Rs1)))
	case BEQ:
		if rd32(in.Rd) == rd32(in.Rs2) {
			next = t.pc + 4 + uint32(in.Imm)*4
		}
	case BNE:
		if rd32(in.Rd) != rd32(in.Rs2) {
			next = t.pc + 4 + uint32(in.Imm)*4
		}
	case BLT:
		if int32(rd32(in.Rd)) < int32(rd32(in.Rs2)) {
			next = t.pc + 4 + uint32(in.Imm)*4
		}
	case JAL:
		wr(in.Rd, t.pc+4)
		next = t.pc + 4 + uint32(in.Imm)*4
	case JR:
		next = rd32(in.Rs1)
	case SYS:
		if t.cfg.Syscall != nil {
			t.cfg.Syscall(c, &t.regs, in.Imm)
		}
	default:
		t.halted = true
		t.err = fmt.Errorf("isa: illegal instruction %#x at %#x", Encode(in), t.pc)
		return true
	}
	t.pc = next
	return false
}

func boolTo(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
