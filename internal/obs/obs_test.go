package obs

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"vmp/internal/sim"
)

// decodeEvent inverts AppendBinary, pinning the wire layout.
func decodeEvent(b []byte) Event {
	return Event{
		Time:  sim.Time(binary.LittleEndian.Uint64(b[0:])),
		Dur:   sim.Time(binary.LittleEndian.Uint64(b[8:])),
		PAddr: binary.LittleEndian.Uint32(b[16:]),
		Board: int16(binary.LittleEndian.Uint16(b[20:])),
		ASID:  b[22],
		Kind:  Kind(b[23]),
		Arg:   b[24],
		Flags: b[25],
	}
}

func TestEncodeRoundTrip(t *testing.T) {
	events := []Event{
		{Time: 1500, Dur: 900, PAddr: 0x1a00, Board: 2, ASID: 3, Kind: KindBus, Arg: 1, Flags: FlagConsistency},
		{Time: 2500, Kind: KindIntr, Board: 0, Arg: 2},
		{Time: 1 << 40, Dur: 17, PAddr: 0xffff_ff00, Board: NoBoard, Kind: KindPhase, Arg: uint8(PhaseMiss), Flags: FlagAborted | FlagNested},
	}
	var buf []byte
	for _, e := range events {
		buf = e.AppendBinary(buf)
	}
	if len(buf) != len(events)*eventWireSize {
		t.Fatalf("encoded %d bytes, want %d", len(buf), len(events)*eventWireSize)
	}
	for i, want := range events {
		got := decodeEvent(buf[i*eventWireSize:])
		if got != want {
			t.Errorf("event %d round-trip: got %+v, want %+v", i, got, want)
		}
	}
}

func TestRingWrapKeepsNewestOldestFirst(t *testing.T) {
	s := NewSink(Config{RingSize: 4}, nil)
	for i := 0; i < 10; i++ {
		s.Emit(Event{Time: sim.Time(i), Kind: KindBus})
	}
	if s.Total() != 10 {
		t.Fatalf("Total = %d, want 10", s.Total())
	}
	ring := s.Ring()
	if len(ring) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(ring))
	}
	for i, e := range ring {
		if want := sim.Time(6 + i); e.Time != want {
			t.Errorf("ring[%d].Time = %d, want %d (oldest first)", i, e.Time, want)
		}
	}
}

func TestRingSizeRoundsUpToPowerOfTwo(t *testing.T) {
	s := NewSink(Config{RingSize: 5}, nil)
	for i := 0; i < 100; i++ {
		s.Emit(Event{Time: sim.Time(i)})
	}
	if got := len(s.Ring()); got != 8 {
		t.Fatalf("ring capacity = %d, want 8", got)
	}
}

func TestStreamRetention(t *testing.T) {
	off := NewSink(Config{}, nil)
	off.Emit(Event{Time: 1})
	if off.Stream() != nil {
		t.Error("stream retained without Config.Stream")
	}
	on := NewSink(Config{Stream: true}, nil)
	for i := 0; i < 3; i++ {
		on.Emit(Event{Time: sim.Time(i)})
	}
	if got := len(on.Stream()); got != 3 {
		t.Errorf("stream holds %d events, want 3", got)
	}
}

func TestPhaseHistograms(t *testing.T) {
	s := NewSink(Config{}, nil)
	for i := 0; i < 5; i++ {
		s.Emit(Event{Kind: KindPhase, Arg: uint8(PhaseMiss), Dur: 20 * sim.Microsecond})
	}
	s.Emit(Event{Kind: KindPhase, Arg: uint8(PhaseTrap), Dur: 2500 * sim.Nanosecond})
	if got := s.PhaseHist(PhaseMiss).Count(); got != 5 {
		t.Errorf("miss histogram count = %d, want 5", got)
	}
	if got := s.PhaseHist(PhaseTrap).Count(); got != 1 {
		t.Errorf("trap histogram count = %d, want 1", got)
	}
	if got := s.PhaseHist(PhaseCopy).Count(); got != 0 {
		t.Errorf("copy histogram count = %d, want 0", got)
	}
	tbl := s.PhaseTable()
	if len(tbl.Rows) != 2 {
		t.Errorf("phase table has %d rows, want 2 (empty phases omitted)", len(tbl.Rows))
	}
}

func TestHotPageAttribution(t *testing.T) {
	s := NewSink(Config{}, nil)
	emitBus := func(paddr uint32, n int, aborted bool) {
		for i := 0; i < n; i++ {
			fl := FlagConsistency
			if aborted {
				fl |= FlagAborted
			}
			s.Emit(Event{Kind: KindBus, PAddr: paddr, Dur: 1000, Flags: fl})
		}
	}
	emitBus(0x2000, 5, false)
	emitBus(0x1000, 5, true) // same traffic, more aborts: ranks first
	emitBus(0x3000, 2, false)
	// Non-consistency bus traffic must not be attributed.
	s.Emit(Event{Kind: KindBus, PAddr: 0x4000, Dur: 1000})

	hot := s.HotPages(0)
	if len(hot) != 3 {
		t.Fatalf("HotPages tracked %d pages, want 3", len(hot))
	}
	if hot[0].PAddr != 0x1000 || hot[1].PAddr != 0x2000 || hot[2].PAddr != 0x3000 {
		t.Errorf("ranking = %#x, %#x, %#x; want 0x1000, 0x2000, 0x3000",
			hot[0].PAddr, hot[1].PAddr, hot[2].PAddr)
	}
	if hot[0].Aborts != 5 || hot[0].Traffic != 5 || hot[0].BusNs != 5000 {
		t.Errorf("hot[0] = %+v, want traffic 5, aborts 5, 5000ns", hot[0])
	}
	if top := s.HotPages(1); len(top) != 1 {
		t.Errorf("HotPages(1) returned %d pages", len(top))
	}
	if rows := s.HotPageTable(2).Rows; len(rows) != 2 {
		t.Errorf("HotPageTable(2) has %d rows, want 2", len(rows))
	}
}

func TestDigestDistinguishesStreams(t *testing.T) {
	a := NewSink(Config{Stream: true}, nil)
	b := NewSink(Config{Stream: true}, nil)
	for i := 0; i < 4; i++ {
		a.Emit(Event{Time: sim.Time(i), Kind: KindBus})
		b.Emit(Event{Time: sim.Time(i), Kind: KindBus})
	}
	if a.Digest() != b.Digest() {
		t.Error("identical streams produced different digests")
	}
	b.Emit(Event{Time: 99, Kind: KindCopy})
	if a.Digest() == b.Digest() {
		t.Error("different streams produced the same digest")
	}
}

func TestAutoDumpFiresOnce(t *testing.T) {
	var buf bytes.Buffer
	s := NewSink(Config{RingSize: 8, DumpTo: &buf}, nil)
	s.Emit(Event{Time: 1, Kind: KindBus, Arg: 0, PAddr: 0x1000})
	if s.Dumped() {
		t.Fatal("Dumped before any AutoDump")
	}
	s.AutoDump("first fault")
	s.AutoDump("second fault")
	out := buf.String()
	if got := strings.Count(out, "FLIGHT RECORDER DUMP"); got != 1 {
		t.Errorf("dump header appeared %d times, want 1 (once-only)", got)
	}
	if !strings.Contains(out, "first fault") || strings.Contains(out, "second fault") {
		t.Error("first AutoDump reason must win")
	}
	if !strings.Contains(out, "paddr=0x00001000") {
		t.Errorf("dump does not show the ring contents:\n%s", out)
	}
	if !s.Dumped() {
		t.Error("Dumped() false after AutoDump")
	}
}

func TestNilSinkIsSafe(t *testing.T) {
	var s *Sink
	s.Emit(Event{Time: 1})
	s.AutoDump("nothing")
	s.DumpRing(&bytes.Buffer{})
	if s.Total() != 0 || s.Ring() != nil || s.Stream() != nil {
		t.Error("nil sink retained data")
	}
	if s.Now() != 0 || s.Digest() != 0 || s.Dumped() {
		t.Error("nil sink accessors not zero-valued")
	}
	if s.HotPages(5) != nil || s.PhaseHist(PhaseMiss) != nil {
		t.Error("nil sink analytics not nil")
	}
}

func TestEventString(t *testing.T) {
	e := Event{
		Time: 1500, Dur: 900 * sim.Nanosecond, PAddr: 0x2a00, Board: 3, ASID: 2,
		Kind: KindPhase, Arg: uint8(PhaseWriteBack), Flags: FlagAborted,
	}
	line := e.String()
	for _, want := range []string{"board3", "phase", "write-back", "paddr=0x00002a00", "asid=2", "ABORT"} {
		if !strings.Contains(line, want) {
			t.Errorf("event line %q missing %q", line, want)
		}
	}
	dma := Event{Board: NoBoard, Kind: KindBus, Arg: 6}
	if !strings.Contains(dma.String(), "dma") {
		t.Errorf("NoBoard event %q does not say dma", dma.String())
	}
}

func TestArgNameCoverage(t *testing.T) {
	if got := ArgName(KindBus, 0); got != "read-shared" {
		t.Errorf("ArgName(KindBus, 0) = %q", got)
	}
	if got := ArgName(KindBus, 200); !strings.Contains(got, "200") {
		t.Errorf("out-of-range op renders %q", got)
	}
	if got := ArgName(KindPhase, uint8(PhaseIntrSvc)); got != "intr-service" {
		t.Errorf("ArgName(KindPhase, intr-service) = %q", got)
	}
	if got := ArgName(KindViolation, 0); got != "" {
		t.Errorf("ArgName(KindViolation) = %q, want empty", got)
	}
}

func TestSinkNowUsesClock(t *testing.T) {
	var now sim.Time = 42
	s := NewSink(Config{}, func() sim.Time { return now })
	if s.Now() != 42 {
		t.Errorf("Now = %d, want 42", s.Now())
	}
	now = 99
	if s.Now() != 99 {
		t.Errorf("Now = %d after clock advance, want 99", s.Now())
	}
}
