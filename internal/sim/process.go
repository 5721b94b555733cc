//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// Process is a simulated actor bound to an Engine. Its body runs as a
// Go runtime coroutine (iter.Pull): the engine switches into it
// directly, without the goroutine scheduler, and the body switches back
// at Delay, Pause, or a wait point. At most one process runs at a time,
// so process bodies may touch shared simulation state without locking.
//
// A process must not be resumed from two events at once; the engine's
// single-threaded event loop guarantees this as long as user code only
// wakes processes through the provided primitives (Delay, Signal,
// Semaphore, Wake).
type Process struct {
	eng  *Engine
	name string
	// next resumes the body until it next yields; stop unwinds it
	// (both from iter.Pull). yield, captured on first entry, is the
	// body's switch back to the engine: it reports false once stop has
	// been called.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	dead  bool
	// killed marks a process being unwound by Kill: any panic on the
	// way out, the kill sentinel or a defer's own, is swallowed.
	killed bool
	// blocked is true while the process waits for an external wake
	// (Signal/Semaphore/Pause) rather than a self-scheduled Delay.
	blocked bool
	// stepFn is the step method value, bound once so the Delay/Wake hot
	// path does not allocate a fresh closure per call.
	stepFn func()
}

// ProcessPanic is the value a process body's panic surfaces as on the
// engine side. The body's exit wrapper captures the original value and
// the coroutine's stack, and iter.Pull re-raises the wrapper inside Run,
// so a caller of Run can contain a simulator fault (a livelock hard
// limit, a protocol assertion) with an ordinary recover.
type ProcessPanic struct {
	// Proc is the name of the process whose body panicked.
	Proc string
	// Value is the original panic value.
	Value any
	// Stack is the panicking coroutine's stack at the point of capture.
	Stack []byte
}

// String renders the fault headline (without the stack).
func (pp *ProcessPanic) String() string {
	return fmt.Sprintf("process %q panicked: %v", pp.Proc, pp.Value)
}

// killSentinel is the panic value a killed process unwinds with; its
// exit wrapper swallows it.
type killSentinel struct{}

// Spawn starts body as a new simulated process. The body begins executing
// at the current simulated time, after already-queued events for this
// instant. Spawn may be called both from outside Run and from within
// event callbacks or other processes.
func (e *Engine) Spawn(name string, body func(p *Process)) *Process {
	p := &Process{eng: e, name: name}
	p.stepFn = p.step
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer p.exit()
		body(p)
	})
	e.procs++
	e.register(p)
	e.Schedule(0, p.stepFn)
	return p
}

// exit retires the process when its body returns or unwinds. A panic
// from a killed process is swallowed; any other is re-raised as a
// *ProcessPanic, which iter.Pull carries out of the coroutine to the
// step call inside Run.
func (p *Process) exit() {
	p.dead = true
	p.eng.procs--
	if r := recover(); r != nil && !p.killed {
		panic(&ProcessPanic{Proc: p.name, Value: r, Stack: debug.Stack()})
	}
}

// register adds p to the kill registry, compacting dead entries when
// the slice is about to grow so long-lived engines that spawn and
// retire many processes stay bounded.
func (e *Engine) register(p *Process) {
	if len(e.plist) == cap(e.plist) {
		live := e.plist[:0]
		for _, q := range e.plist {
			if !q.dead {
				live = append(live, q)
			}
		}
		e.plist = live
	}
	e.plist = append(e.plist, p)
}

// Kill unwinds the process without scheduling any event: a parked body
// panics with the kill sentinel at its wait point and runs its defers,
// and a body that never started never runs. A panic raised on the way
// out does not escape; the killed process is abandoned regardless.
// Call it only from outside Run (never from an event callback or
// process body). Killing a dead process is a no-op.
func (p *Process) Kill() {
	if p.dead {
		return
	}
	p.killed = true
	p.stop()
	if !p.dead { // never started, so exit never ran
		p.dead = true
		p.eng.procs--
	}
}

// KillProcesses kills every live process (see Kill), so no coroutine
// outlives an abandoned simulation. Call it only from outside Run,
// after abandoning a cancelled or faulted simulation; the simulated
// state is left as-is and must not be trusted afterwards.
func (e *Engine) KillProcesses() {
	for _, p := range e.plist {
		p.Kill()
	}
	e.plist = e.plist[:0]
}

// Live reports the number of processes that have been spawned and have
// not yet returned. A nonzero value after Run completes usually means a
// process is blocked forever (a simulation deadlock).
func (e *Engine) Live() int { return e.procs }

// Name returns the name given at Spawn.
func (p *Process) Name() string { return p.name }

// Now returns the current simulated time.
func (p *Process) Now() Time { return p.eng.now }

// step switches into the process until its next yield. It is the only
// way a process ever runs, so process execution is serialized with all
// other events. Stepping a finished process is a no-op.
func (p *Process) step() { p.next() }

// switchOut returns control to the engine until the next step. It
// unwinds the body with the kill sentinel if the process was killed
// while parked.
func (p *Process) switchOut() {
	if !p.yield(struct{}{}) {
		panic(killSentinel{})
	}
}

// Delay advances this process's local activity by d simulated time.
// Other events and processes run in the meantime.
func (p *Process) Delay(d Time) {
	p.eng.Schedule(d, p.stepFn)
	p.switchOut()
}

// Pause blocks the process until something calls Wake. Use it to wait
// for a condition managed by other simulation actors.
func (p *Process) Pause() {
	p.blocked = true
	p.switchOut()
}

// Wake schedules the process to resume at the current simulated time.
// It must only be called while the process is paused via Pause (directly
// or through Signal/Semaphore); waking a process that is not paused
// panics.
func (p *Process) Wake() {
	if !p.blocked {
		panic("sim: Wake of a process that is not paused: " + p.name)
	}
	p.blocked = false
	p.eng.Schedule(0, p.stepFn)
}

// Signal is a broadcast condition variable for processes. The zero
// value is ready to use.
type Signal struct {
	waiters []*Process
}

// Wait pauses p until the next Broadcast or Pulse that includes it.
func (s *Signal) Wait(p *Process) {
	s.waiters = append(s.waiters, p)
	p.Pause()
}

// Broadcast wakes every waiting process. The processes resume at the
// current simulated time in the order they began waiting.
func (s *Signal) Broadcast() {
	// Wake only schedules, so no waiter re-enters the list before the
	// reset, which keeps the storage for the next Wait.
	for _, p := range s.waiters {
		p.Wake()
	}
	s.waiters = s.waiters[:0]
}

// WaitTimeout waits on the signal for at most d, reporting whether the
// signal (true) or the timeout (false) woke the process. The timeout
// wake removes the process from the waiter list, so a later Broadcast
// does not touch it.
func (s *Signal) WaitTimeout(p *Process, d Time) bool {
	done := false
	signalled := true
	p.eng.Schedule(d, func() {
		if done {
			return
		}
		for i, w := range s.waiters {
			if w == p {
				s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
				signalled = false
				p.Wake()
				return
			}
		}
	})
	s.Wait(p)
	done = true
	return signalled
}

// Pulse wakes the longest-waiting process, if any, and reports whether
// one was woken.
func (s *Signal) Pulse() bool {
	if len(s.waiters) == 0 {
		return false
	}
	p := s.waiters[0]
	s.waiters = append(s.waiters[:0], s.waiters[1:]...) // in place: no regrowth
	p.Wake()
	return true
}

// Waiting reports the number of processes blocked on the signal.
func (s *Signal) Waiting() int { return len(s.waiters) }

// Semaphore is a counting semaphore with FIFO wakeup. The zero value has
// a count of zero.
type Semaphore struct {
	count   int
	waiters []*Process
}

// NewSemaphore returns a semaphore with the given initial count.
func NewSemaphore(n int) *Semaphore { return &Semaphore{count: n} }

// Acquire decrements the semaphore, pausing p until a unit is available.
// Units are granted in FIFO order.
func (s *Semaphore) Acquire(p *Process) {
	if s.count > 0 && len(s.waiters) == 0 {
		s.count--
		return
	}
	s.waiters = append(s.waiters, p)
	p.Pause()
}

// Release increments the semaphore, waking the longest waiter if any.
func (s *Semaphore) Release() {
	if len(s.waiters) > 0 {
		p := s.waiters[0]
		s.waiters = append(s.waiters[:0], s.waiters[1:]...)
		p.Wake()
		return
	}
	s.count++
}
