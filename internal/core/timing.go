// Package core assembles the VMP machine: processor boards with
// virtually addressed caches, software cache-miss handling out of local
// memory, per-board bus monitors, the block copier, and the two-state
// ownership consistency protocol — everything in Sections 2-4 of the
// paper, on top of the bus/memory/vm substrates.
package core

import "vmp/internal/sim"

// Timing collects every processor-side latency constant. Bus and memory
// latencies live in bus.Timing; the defaults here are
// calibrated to the paper's 16 MHz 68020 and its miss-handler
// instruction counts, so that the simulated Table 1 reproduces the
// published elapsed and bus times.
type Timing struct {
	// InstrTime is the average instruction execution time: ~7 clocks at
	// 60 ns (MacGregor), i.e. 2.4 MIPS.
	//
	// The json tags on this struct (and on HandlerTiming and
	// RetryPolicy) pin the wire names the scenario layer's canonical
	// JSON has always used — the Go field names. They exist so that a
	// field rename cannot silently change scenario fingerprints; see
	// vmplint's canonjson rule.
	InstrTime sim.Time `json:"InstrTime"`
	// RefsPerInstr is the average number of 4-byte memory references
	// per instruction, including instruction fetch. 1.22 is calibrated
	// from the paper's worked example (miss ratio 0.24% -> 87%
	// performance).
	RefsPerInstr float64 `json:"RefsPerInstr"`

	Handler HandlerTiming `json:"Handler"`

	// PageFault is the operating-system service time for a demand-zero
	// page fault (not part of the paper's Table 1; misses in the
	// steady-state experiments never fault).
	PageFault sim.Time `json:"PageFault"`
	// UncachedAccess is the processor-side cost of one uncached global
	// memory word access beyond the bus transaction itself.
	UncachedAccess sim.Time `json:"UncachedAccess"`
}

// HandlerTiming breaks the software miss handler into phases. The sum
// of all phases is the paper's ~15 µs of software time per miss;
// BookkeepWB overlaps a victim write-back transfer and BookkeepRead
// overlaps the fill transfer, reproducing Table 1's overlap structure.
type HandlerTiming struct {
	// TrapEntry: exception stacking, vectoring, handler prologue.
	TrapEntry sim.Time `json:"TrapEntry"`
	// VictimSelect: reading the suggested slot, checking its state.
	VictimSelect sim.Time `json:"VictimSelect"`
	// BookkeepWB: page-map updates that the handler performs while a
	// victim write-back streams (executed unconditionally; the overlap
	// only matters when there is a write-back).
	BookkeepWB sim.Time `json:"BookkeepWB"`
	// Translate: the software table walk when the page-table entry hits
	// in the cache (a PT miss costs a full nested miss on top).
	Translate sim.Time `json:"Translate"`
	// BookkeepRead: cache-content bookkeeping overlapped with the fill
	// transfer.
	BookkeepRead sim.Time `json:"BookkeepRead"`
	// Epilogue: restoring state and returning from the exception.
	Epilogue sim.Time `json:"Epilogue"`
	// Retry: extra cost of re-trapping when a fill was aborted by an
	// ownership conflict and the instruction retries.
	Retry sim.Time `json:"Retry"`
	// Interrupt: fixed cost of taking one bus-monitor interrupt and
	// dispatching on the FIFO word, before any per-page work.
	Interrupt sim.Time `json:"Interrupt"`
	// RecoveryPerPage: per-shared-page cost of the FIFO overflow
	// recovery sweep.
	RecoveryPerPage sim.Time `json:"RecoveryPerPage"`
}

// Total returns the non-overlapped software cost of a straightforward
// miss (all phases executed back to back).
func (h HandlerTiming) Total() sim.Time {
	return h.TrapEntry + h.VictimSelect + h.BookkeepWB + h.Translate + h.BookkeepRead + h.Epilogue
}

// DefaultTiming returns the calibrated constants.
func DefaultTiming() Timing {
	return Timing{
		InstrTime:    420 * sim.Nanosecond,
		RefsPerInstr: 1.22,
		Handler: HandlerTiming{
			TrapEntry:       2500 * sim.Nanosecond,
			VictimSelect:    1500 * sim.Nanosecond,
			BookkeepWB:      3400 * sim.Nanosecond,
			Translate:       2800 * sim.Nanosecond,
			BookkeepRead:    1400 * sim.Nanosecond,
			Epilogue:        3400 * sim.Nanosecond,
			Retry:           3000 * sim.Nanosecond,
			Interrupt:       2000 * sim.Nanosecond,
			RecoveryPerPage: 500 * sim.Nanosecond,
		},
		PageFault:      30 * sim.Microsecond,
		UncachedAccess: 180 * sim.Nanosecond,
	}
}

// RefTime returns the average processor time between memory references
// when every reference hits: InstrTime / RefsPerInstr.
func (t Timing) RefTime() sim.Time {
	return sim.Time(float64(t.InstrTime) / t.RefsPerInstr)
}

// RetryPolicy hardens the protocol retry loops: instead of retrying
// forever at a fixed delay, consecutive retries of the same operation
// back off exponentially (deterministically — the delay depends only on
// the attempt number and board ID), long runs are counted as starvation
// events, and a pathological run panics rather than livelocking the
// simulation silently.
type RetryPolicy struct {
	// BackoffShiftCap caps the exponential backoff: the delay of attempt
	// n is the base retry delay shifted left by min(n, cap).
	BackoffShiftCap int `json:"BackoffShiftCap"`
	// StarveThreshold is the consecutive-retry count at which one
	// starvation event is recorded (check/starvation-events).
	StarveThreshold int `json:"StarveThreshold"`
	// HardLimit is the consecutive-retry count treated as a livelock:
	// reaching it panics. Far above anything a surviving run produces.
	HardLimit int `json:"HardLimit"`
}

// DefaultRetryPolicy returns the calibrated limits.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		BackoffShiftCap: 6,
		StarveThreshold: 64,
		HardLimit:       1 << 17,
	}
}
