package bus

import (
	"fmt"

	"vmp/internal/obs"
	"vmp/internal/sim"
)

// Interconnect is the transaction-issue/snoop/arbitration surface of
// the machine's interconnect, extracted from the single shared VMEbus
// so the machine can scale past one bus. Two implementations exist:
//
//   - *Bus, the reference single shared VMEbus (byte-identical to the
//     pre-interface machine for every historical scenario), and
//   - *Hierarchy, boards grouped onto local bus segments, each itself a
//     *Bus, joined by an inter-bus link with an inclusion filter
//     (hierarchy.go).
//
// Everything above the interconnect — boards, monitors, copiers, the
// miss handler, the kernel — issues transactions through Do and never
// needs to know the topology. Configuration methods (SetTiming,
// SetSink, SetInjector, SetObserver, Attach) must be called before the
// simulation starts; they are not safe mid-run.
type Interconnect interface {
	// Do performs one transaction on behalf of process p, blocking p
	// for the arbitration and transfer time (see Bus.Do for the
	// reference semantics).
	Do(p *sim.Process, tx Transaction) Result
	// Attach registers a bus monitor. The hierarchical implementation
	// places it on the segment its board lives on.
	Attach(s Snooper)
	// SetInjector attaches a fault injector (nil detaches).
	SetInjector(inj Injector)
	// SetSink attaches the observability sink (nil detaches).
	SetSink(s *obs.Sink)
	// SetObserver registers fn to run after every logical transaction's
	// effects, while the (home) bus is still held.
	SetObserver(fn func(Transaction, Result))
	// SetTiming overrides the timing constants.
	SetTiming(t Timing)
	// Timing returns the timing constants.
	Timing() Timing
	// Stats returns the aggregate transaction counters.
	Stats() Stats
	// Utilization returns the mean fraction of simulated time the
	// interconnect's bus segments were busy.
	Utilization() float64
}

// Both implementations must satisfy the full surface.
var (
	_ Interconnect = (*Bus)(nil)
	_ Interconnect = (*Hierarchy)(nil)
)

// MaxBoards bounds the board count of a hierarchical machine: the
// inclusion filter keeps one presence bit per board per page frame in a
// uint64, which is also what keeps filter updates free of map-order
// dependence. Single-bus machines are not bounded.
const MaxBoards = 64

// Topology describes the interconnect shape. The zero value (and any
// value with Buses <= 1) selects the classic single shared VMEbus.
type Topology struct {
	// Buses is the number of local bus segments.
	Buses int
	// BoardsPerBus is the number of board slots per segment; board i
	// lives on segment i/BoardsPerBus. Zero spreads the boards evenly
	// (filled in by core.Config.FillDefaults).
	BoardsPerBus int
}

// SingleBus reports whether the topology is the classic one-bus
// machine.
func (t Topology) SingleBus() bool { return t.Buses <= 1 }

// SegmentOf returns the segment a board lives on. DMA transactions
// (NoRequester) issue on segment 0, the segment the I/O adapters share.
func (t Topology) SegmentOf(board int) int {
	if board < 0 || t.BoardsPerBus <= 0 {
		return 0
	}
	s := board / t.BoardsPerBus
	if s >= t.Buses {
		return t.Buses - 1
	}
	return s
}

// Validate rejects an unusable multi-bus shape for the given board
// count. Single-bus topologies are always valid.
func (t Topology) Validate(boards int) error {
	if t.SingleBus() {
		return nil
	}
	if t.Buses > MaxBoards {
		return fmt.Errorf("%d buses exceeds the %d-segment limit", t.Buses, MaxBoards)
	}
	if t.BoardsPerBus < 1 {
		return fmt.Errorf("boards-per-bus %d; need at least 1", t.BoardsPerBus)
	}
	if boards > MaxBoards {
		return fmt.Errorf("%d boards exceeds the inclusion filter's %d-board limit", boards, MaxBoards)
	}
	if t.Buses*t.BoardsPerBus < boards {
		return fmt.Errorf("%d buses x %d boards-per-bus seats fewer than %d boards", t.Buses, t.BoardsPerBus, boards)
	}
	return nil
}
