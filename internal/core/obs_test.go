package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"vmp/internal/bus"
	"vmp/internal/cache"
	"vmp/internal/fault"
	"vmp/internal/obs"
)

// The bus/obs op-name correspondence needs no pinning test any more:
// bus.Op is an alias for busop.Op and obs.ArgName renders through
// busop.Op.String(), so both sides read the one table in internal/busop
// and a new Op without a name fails to compile there.

// obsWorkload drives a deterministic contended workload: both boards
// share ASID 1 and ping-pong loads and stores over a small set of
// pages, producing misses, upgrades, invalidations, downgrades,
// write-backs and retries — every event kind except violations.
func obsWorkload(t testing.TB, m *Machine, refsPerBoard int) {
	t.Helper()
	const base, pages = 0x4000, 8
	ps := uint32(m.Config().Cache.PageSize)
	addrs := make([]uint32, pages)
	for i := range addrs {
		addrs[i] = base + uint32(i)*ps
	}
	obsWorkloadAt(t, m, addrs, refsPerBoard)
}

// obsWorkloadAt runs obsWorkload's reference pattern over addrs.
func obsWorkloadAt(t testing.TB, m *Machine, addrs []uint32, refsPerBoard int) {
	t.Helper()
	pages := len(addrs)
	if err := m.EnsureSpace(1); err != nil {
		t.Fatal(err)
	}
	if err := m.Prefault(1, addrs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(m.Boards); i++ {
		i := i
		m.RunProgram(i, func(c *CPU) {
			c.SetASID(1)
			for k := 0; k < refsPerBoard; k++ {
				a := addrs[(k*7+i*3)%pages]
				if k%3 == 0 {
					c.Store(a, uint32(k))
				} else {
					_ = c.Load(a)
				}
				c.Compute(2)
			}
		})
	}
	m.Run()
}

// runStream builds a 2-board machine running the named coherence
// protocol ("" for the default) with the full event stream retained,
// runs the contended workload, and returns the encoded stream plus its
// digest.
func runStream(t testing.TB, protocol string) ([]byte, uint64) {
	t.Helper()
	m, err := NewMachine(Config{
		Processors: 2,
		Cache:      cache.Geometry(8<<10, 256, 2), // small: force evictions
		MemorySize: 4 << 20,
		Protocol:   protocol,
		Obs:        &obs.Config{Stream: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	obsWorkload(t, m, 1500)
	if v := m.CheckInvariants(); len(v) != 0 {
		t.Fatalf("invariants: %v", v)
	}
	var buf []byte
	for _, e := range m.Sink().Stream() {
		buf = e.AppendBinary(buf)
	}
	return buf, m.Sink().Digest()
}

// TestSerialParallelStreamsIdentical proves the tentpole determinism
// property: the same run produces a byte-identical event stream whether
// executed alone or concurrently with identical runs on other
// goroutines (sinks are engine-confined; nothing is shared).
func TestSerialParallelStreamsIdentical(t *testing.T) {
	want, wantDigest := runStream(t, "")
	if len(want) == 0 {
		t.Fatal("reference run produced no events")
	}

	const workers = 4
	streams := make([][]byte, workers)
	digests := make([]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			streams[w], digests[w] = runStream(t, "")
		}()
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if !bytes.Equal(streams[w], want) {
			t.Errorf("parallel run %d: stream differs from serial run (%d vs %d bytes)",
				w, len(streams[w]), len(want))
		}
		if digests[w] != wantDigest {
			t.Errorf("parallel run %d: digest %016x, want %016x", w, digests[w], wantDigest)
		}
	}
}

// TestStreamDigestsPinned pins runStream's event-stream digest under
// each protocol. TestSerialParallelStreamsIdentical only compares runs
// with each other, so a change that shifts every run the same way
// (event order, timing or flags) passes it; it fails here. A change
// that alters the stream on purpose must re-pin these and say why.
func TestStreamDigestsPinned(t *testing.T) {
	want := map[string]uint64{
		"vmp2": 0xf5e1d1bb5fb839cc,
		"vmp3": 0x55e9bb6e07d11a34,
		"rlt":  0xf5e1d1bb5fb839cc, // no aliases in this workload: rlt runs as vmp2
	}
	for _, proto := range []string{"vmp2", "vmp3", "rlt"} {
		if _, got := runStream(t, proto); got != want[proto] {
			t.Errorf("%s: stream digest %#016x, want %#016x", proto, got, want[proto])
		}
	}
}

// TestPhaseHistogramsPopulated checks the event stream actually carries
// the miss-handler decomposition: a contended run must populate the
// phase histograms and attribute hot-page traffic.
func TestPhaseHistogramsPopulated(t *testing.T) {
	m, err := NewMachine(Config{
		Processors: 2,
		Cache:      cache.Geometry(8<<10, 256, 2),
		MemorySize: 4 << 20,
		Obs:        &obs.Config{},
	})
	if err != nil {
		t.Fatal(err)
	}
	obsWorkload(t, m, 1500)
	if v := m.CheckInvariants(); len(v) != 0 {
		t.Fatalf("invariants: %v", v)
	}
	sink := m.Sink()
	for _, p := range []obs.Phase{obs.PhaseMiss, obs.PhaseTrap, obs.PhaseTranslate,
		obs.PhaseVictim, obs.PhaseCopy, obs.PhaseEpilogue, obs.PhaseUpgrade} {
		if sink.PhaseHist(p).Count() == 0 {
			t.Errorf("phase %v: no samples in a contended run", p)
		}
	}
	if hot := sink.HotPages(1); len(hot) == 0 || hot[0].Traffic == 0 {
		t.Error("no hot-page attribution in a contended run")
	}
	if sink.Total() == 0 {
		t.Error("sink recorded no events")
	}
}

// TestViolationHookDumpsFlightRecorder proves the auto-dump path: the
// moment the watchdog records a protocol violation, the machine emits a
// KindViolation event and dumps the ring to the configured writer.
func TestViolationHookDumpsFlightRecorder(t *testing.T) {
	var dump bytes.Buffer
	m, err := NewMachine(Config{
		Processors: 2,
		Cache:      cache.Geometry(8<<10, 256, 2),
		MemorySize: 4 << 20,
		Watchdog:   true,
		Obs:        &obs.Config{RingSize: 64, DumpTo: &dump},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Seed the ring so the dump has context to show.
	m.Sink().Emit(obs.Event{Time: 100, Kind: obs.KindBus, PAddr: 0x1000})

	// A write-back by a board the shadow never granted ownership is a
	// genuine protocol violation, fed through the watchdog's public
	// observation surface exactly as the bus observer would.
	m.watch.OnTransaction(
		bus.Transaction{Op: bus.WriteBack, PAddr: 0x1000, Requester: 0, Bytes: 256},
		bus.Result{})

	if !m.Sink().Dumped() {
		t.Fatal("violation did not trigger AutoDump")
	}
	out := dump.String()
	if !strings.Contains(out, "FLIGHT RECORDER DUMP: protocol violation") {
		t.Errorf("dump header missing violation reason:\n%s", out)
	}
	if !strings.Contains(out, "paddr=0x00001000") {
		t.Errorf("dump does not show the preceding ring contents:\n%s", out)
	}
	ring := m.Sink().Ring()
	if len(ring) == 0 || ring[len(ring)-1].Kind != obs.KindViolation {
		t.Error("violation did not append a KindViolation event to the ring")
	}
}

// TestLivelockDumpsBeforePanic proves the retry hard limit dumps the
// flight recorder before panicking, so the transactions leading up to
// the livelock are on record.
func TestLivelockDumpsBeforePanic(t *testing.T) {
	var dump bytes.Buffer
	m, err := NewMachine(Config{
		Processors: 1,
		Cache:      cache.Geometry(8<<10, 256, 2),
		MemorySize: 4 << 20,
		Obs:        &obs.Config{DumpTo: &dump},
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Sink().Emit(obs.Event{Time: 7, Kind: obs.KindBus})
	defer func() {
		if recover() == nil {
			t.Fatal("hard limit did not panic")
		}
		if !strings.Contains(dump.String(), "FLIGHT RECORDER DUMP: livelock") {
			t.Errorf("no flight-recorder dump before the livelock panic:\n%s", dump.String())
		}
	}()
	m.Boards[0].noteRetry(m.Config().Retry.HardLimit)
}

// TestTraceExportDeterministicAndValid runs the same machine twice and
// requires byte-identical Perfetto documents that parse as JSON — the
// export path analogue of the stream byte-identity test.
func TestTraceExportDeterministicAndValid(t *testing.T) {
	export := func() []byte {
		m, err := NewMachine(Config{
			Processors: 2,
			Cache:      cache.Geometry(8<<10, 256, 2),
			MemorySize: 4 << 20,
			Obs:        &obs.Config{Stream: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		obsWorkload(t, m, 800)
		var buf bytes.Buffer
		if err := obs.WriteTrace(&buf, m.Sink().Stream()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := export(), export()
	if !bytes.Equal(a, b) {
		t.Error("identical runs exported different Perfetto documents")
	}
	if !json.Valid(a) {
		t.Error("exported trace is not valid JSON")
	}
}

// TestTraceExportValidUnderFaultClasses is the fuzz-ish exporter test:
// under every fault class (and all of them at once) the run must still
// produce a well-formed Perfetto document — aborted, spurious,
// storm-duplicated and transfer-errored events included.
func TestTraceExportValidUnderFaultClasses(t *testing.T) {
	classes := []string{
		"abort=0.05",
		"copy=0.03",
		"fifo=2,storm=0.1",
		"flip=0.02",
		"abort=0.03,copy=0.02,fifo=4,storm=0.05,flip=0.01",
	}
	for _, class := range classes {
		class := class
		t.Run(class, func(t *testing.T) {
			spec, err := fault.Parse(class)
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewMachine(Config{
				Processors: 2,
				Cache:      cache.Geometry(8<<10, 256, 2),
				MemorySize: 4 << 20,
				Faults:     spec,
				FaultSeed:  23,
				Obs:        &obs.Config{Stream: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			obsWorkload(t, m, 1000)
			var buf bytes.Buffer
			if err := obs.WriteTrace(&buf, m.Sink().Stream()); err != nil {
				t.Fatal(err)
			}
			if !json.Valid(buf.Bytes()) {
				t.Fatalf("fault class %q produced invalid trace JSON (%d bytes)", class, buf.Len())
			}
			if m.Sink().Total() == 0 {
				t.Error("faulted run emitted no events")
			}
		})
	}
}

// TestSinkDisabledByDefault pins the nil discipline: a machine built
// without Config.Obs has no sink anywhere.
func TestSinkDisabledByDefault(t *testing.T) {
	m := newTestMachine(t, 2)
	if m.Sink() != nil {
		t.Error("machine without Config.Obs has a sink")
	}
	for _, b := range m.Boards {
		if b.sink != nil {
			t.Errorf("board %d has a sink on a machine without Config.Obs", b.ID)
		}
	}
	obsWorkload(t, m, 200)
	checkClean(t, m)
}

// TestNestedMissFlagged pins the nested-miss contract of the one miss
// handler on a workload certain to take page-table misses: 24 pages,
// each with its L2 entry in a different page-table cache page, cycled
// through a 32-slot cache by two boards (48 cache pages in all). Under every protocol a
// page-table miss is flagged FlagNested and takes no latency sample, so
// each board's MissLatency count equals its non-nested miss spans.
// Under vmp3, whose top-level read fill is ReadExclusive, every fill
// inside a nested span must be ReadShared.
func TestNestedMissFlagged(t *testing.T) {
	addrs := make([]uint32, 24)
	for k := range addrs {
		// 64 VM pages apart (each L2 entry in a new page-table cache
		// page), plus one cache page so the data spreads over the sets.
		addrs[k] = 0x10_0000 + uint32(k)*0x4_0100
	}
	isFill := func(op bus.Op) bool {
		return op == bus.ReadShared || op == bus.ReadPrivate || op == bus.ReadExclusive
	}
	for _, proto := range []string{"vmp2", "vmp3", "rlt"} {
		t.Run(proto, func(t *testing.T) {
			m, err := NewMachine(Config{
				Processors: 2,
				Cache:      cache.Geometry(8<<10, 256, 2),
				MemorySize: 4 << 20,
				Protocol:   proto,
				Obs:        &obs.Config{Stream: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			obsWorkloadAt(t, m, addrs, 600)
			checkClean(t, m)
			stream := m.Sink().Stream()
			topMisses := make([]uint64, len(m.Boards))
			var nested []obs.Event
			for _, e := range stream {
				if e.Kind != obs.KindPhase || obs.Phase(e.Arg) != obs.PhaseMiss {
					continue
				}
				if e.Flags&obs.FlagNested != 0 {
					nested = append(nested, e)
				} else {
					topMisses[e.Board]++
				}
			}
			if len(nested) == 0 {
				t.Fatal("workload took no nested page-table miss")
			}
			t.Logf("%d nested miss spans, top-level spans per board %v", len(nested), topMisses)
			for i, b := range m.Boards {
				if got := b.MissLatency().Count(); got != topMisses[i] {
					t.Errorf("board %d: %d miss-latency samples, %d top-level miss spans", i, got, topMisses[i])
				}
			}
			if proto != "vmp3" {
				return
			}
			var nestedFills, exclusiveFills int
			for _, e := range stream {
				if e.Kind != obs.KindCopy || !isFill(bus.Op(e.Arg)) {
					continue
				}
				if bus.Op(e.Arg) == bus.ReadExclusive {
					exclusiveFills++
				}
				for _, n := range nested {
					if n.Board == e.Board && e.Time >= n.Time && e.Time+e.Dur <= n.Time+n.Dur {
						nestedFills++
						if bus.Op(e.Arg) != bus.ReadShared {
							t.Errorf("fill %v at %d inside a nested miss span", bus.Op(e.Arg), e.Time)
						}
					}
				}
			}
			if nestedFills == 0 || exclusiveFills == 0 {
				t.Fatalf("%d fills inside nested spans, %d read-exclusive fills: the check cannot tell them apart",
					nestedFills, exclusiveFills)
			}
		})
	}
}

// TestMissCostNoteFormat pins the digest rendering used by the misscost
// experiment note (CI diffs it across serial and parallel vmpbench
// runs, so the format itself is part of the byte-identity proof).
func TestMissCostNoteFormat(t *testing.T) {
	s := obs.NewSink(obs.Config{Stream: true}, nil)
	s.Emit(obs.Event{Time: 1, Kind: obs.KindBus})
	note := fmt.Sprintf("digest %016x", s.Digest())
	if len(note) != len("digest ")+16 {
		t.Errorf("digest note %q is not fixed-width", note)
	}
}
