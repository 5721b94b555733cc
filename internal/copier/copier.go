// Package copier models the block copier embedded in each VMP cache
// controller. The copier performs cache-page transfers over the bus
// using the sequential block-transfer protocol (40 MB/s on the
// prototype's VMEbus) and runs concurrently with the CPU, which executes
// the miss-handler bookkeeping out of local memory during the transfer.
//
// For comparison (the paper notes a processor copy loop manages less
// than 5 MB/s), CopyByCPU performs the same movement with single-word
// plain transfers plus per-word instruction overhead.
package copier

import (
	"fmt"

	"vmp/internal/bus"
	"vmp/internal/obs"
	"vmp/internal/sim"
	"vmp/internal/stats"
)

// maxReissues bounds the transfer-error re-issue loop. Exhausting it
// means the transfer hardware is persistently broken — fatal by design,
// there is no software recovery for a page that cannot be moved.
const maxReissues = 12

// reissueShiftCap caps the exponential backoff between re-issues.
const reissueShiftCap = 6

// Copier is one board's block-copy engine. Create with New.
//
// The copier is one long-lived simulated process per board: the first
// Start spawns it, and between transfers it parks on a signal that
// later Starts pulse. Close retires it once the run is over.
type Copier struct {
	eng     *sim.Engine
	bus     bus.Interconnect
	boardID int

	proc   *sim.Process
	kick   sim.Signal
	tx     bus.Transaction
	busy   bool
	done   sim.Signal
	result bus.Result

	ctr  copierCounters
	sink *obs.Sink
}

// copierCounters is the recorder-backed counter set for one copier,
// registered in the per-run metrics sink like every other component.
type copierCounters struct {
	transfers, aborted, reissues, xferErrs, bytesMoved, busTime *stats.Counter
}

// New creates a copier for the given board, registering its counters in
// the engine's per-run recorder under "board<i>/copier/...".
func New(eng *sim.Engine, b bus.Interconnect, boardID int) *Copier {
	prefix := fmt.Sprintf("board%d/copier/", boardID)
	rec := eng.Recorder()
	return &Copier{
		eng: eng, bus: b, boardID: boardID,
		ctr: copierCounters{
			transfers:  rec.Counter(prefix + "transfers"),
			aborted:    rec.Counter(prefix + "aborted"),
			reissues:   rec.Counter(prefix + "reissues"),
			xferErrs:   rec.Counter(prefix + "transfer-errors"),
			bytesMoved: rec.Counter(prefix + "bytes-moved"),
			busTime:    rec.Counter(prefix + "bus-time-ns"),
		},
	}
}

// SetSink attaches the observability sink; every transfer then emits a
// KindCopy event spanning its start to completion, re-issues included.
func (c *Copier) SetSink(s *obs.Sink) { c.sink = s }

// Busy reports whether a transfer is in flight.
func (c *Copier) Busy() bool { return c.busy }

// Start launches a block transaction asynchronously. The CPU may keep
// executing (bookkeeping in local memory) and must call Wait before
// depending on the result. Starting while busy is a programming error
// in the miss handler and panics.
func (c *Copier) Start(tx bus.Transaction) {
	if c.busy {
		panic("copier: Start while busy")
	}
	tx.Requester = c.boardID
	c.tx = tx
	c.busy = true
	// Either way the copier process is scheduled once at the current
	// instant, so reusing it leaves the event order unchanged.
	if c.proc == nil {
		c.proc = c.eng.Spawn("copier", c.serve)
	} else {
		c.kick.Pulse()
	}
}

// serve is the copier process body: perform the pending transfer,
// re-issuing it after transfer errors, publish the result to Wait, and
// park until the next Start.
func (c *Copier) serve(p *sim.Process) {
	for {
		tx := c.tx
		start := p.Now()
		reissued := false
		res := c.bus.Do(p, tx)
		c.ctr.transfers.Inc()
		// A transfer error has no protocol side effects, so the copier
		// re-issues the identical transaction after a bounded,
		// deterministic exponential backoff. An abort is different: it has
		// a protocol cause the miss handler must resolve, so it is
		// reported up instead of retried here.
		for attempt := 0; res.TransferErr; attempt++ {
			c.ctr.xferErrs.Inc()
			reissued = true
			if attempt == maxReissues {
				panic(fmt.Sprintf("copier: board %d transfer %v paddr %#x failed %d times",
					c.boardID, tx.Op, tx.PAddr, maxReissues))
			}
			shift := attempt
			if shift > reissueShiftCap {
				shift = reissueShiftCap
			}
			p.Delay(c.bus.Timing().ArbAddr << shift)
			c.ctr.reissues.Inc()
			res = c.bus.Do(p, tx)
			c.ctr.transfers.Inc()
		}
		c.ctr.busTime.Add(int64(p.Now() - start))
		if res.Aborted {
			c.ctr.aborted.Inc()
		} else {
			c.ctr.bytesMoved.Add(int64(tx.Bytes))
		}
		if c.sink != nil {
			var fl uint8
			if res.Aborted {
				fl |= obs.FlagAborted
			}
			if reissued {
				fl |= obs.FlagTransferErr
			}
			c.sink.Emit(obs.Event{
				Time: start, Dur: p.Now() - start, PAddr: tx.PAddr,
				Board: int16(c.boardID), Kind: obs.KindCopy, Arg: uint8(tx.Op), Flags: fl,
			})
		}
		c.result = res
		c.busy = false
		c.done.Broadcast()
		c.kick.Wait(p)
	}
}

// Close retires the parked copier process without scheduling any
// event, so a finished run leaves no coroutine behind; a later Start
// spawns a fresh one. Call it only from outside Run, once the
// simulation is over.
func (c *Copier) Close() {
	if c.proc != nil {
		c.proc.Kill()
		c.proc, c.kick = nil, sim.Signal{}
	}
}

// Wait blocks p until the in-flight transfer (if any) completes and
// returns its result.
func (c *Copier) Wait(p *sim.Process) bus.Result {
	for c.busy {
		c.done.Wait(p)
	}
	return c.result
}

// Run performs a block transaction synchronously: Start followed by
// Wait.
func (c *Copier) Run(p *sim.Process, tx bus.Transaction) bus.Result {
	c.Start(tx)
	return c.Wait(p)
}

// CPUCopyTiming parameterizes the software copy loop used by the
// block-copier ablation: per-word loop overhead executed by the CPU in
// addition to the word-at-a-time bus transfers.
type CPUCopyTiming struct {
	PerWordOverhead sim.Time
}

// DefaultCPUCopyTiming models a tight 68020 copy loop: roughly two
// instructions (load, store with post-increment and branch folded in)
// per longword at ~420 ns each beyond the bus transfer itself.
func DefaultCPUCopyTiming() CPUCopyTiming {
	return CPUCopyTiming{PerWordOverhead: 400 * sim.Nanosecond}
}

// CopyByCPU moves n bytes using single-word plain bus transactions in a
// software loop, charging loop overhead per word: the slow path the
// block copier exists to avoid. It returns the bus time consumed.
func (c *Copier) CopyByCPU(p *sim.Process, paddr uint32, n int, t CPUCopyTiming) sim.Time {
	var busTime sim.Time
	for off := 0; off < n; off += 4 {
		p.Delay(t.PerWordOverhead)
		start := p.Now()
		c.bus.Do(p, bus.Transaction{
			Op: bus.PlainRead, PAddr: paddr + uint32(off), Bytes: 4, Requester: c.boardID,
		})
		busTime += p.Now() - start
	}
	return busTime
}
