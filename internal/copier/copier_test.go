package copier

import (
	"testing"

	"vmp/internal/bus"
	"vmp/internal/sim"
)

func TestRunSynchronous(t *testing.T) {
	eng := sim.NewEngine()
	b := bus.New(eng)
	c := New(eng, b, 0)
	var end sim.Time
	eng.Spawn("cpu", func(p *sim.Process) {
		res := c.Run(p, bus.Transaction{Op: bus.ReadShared, PAddr: 0, Bytes: 256})
		if res.Aborted {
			t.Error("aborted")
		}
		end = p.Now()
	})
	eng.Run()
	want := b.Timing().TransferTime(bus.ReadShared, 256)
	if end != want {
		t.Errorf("Run took %v, want %v", end, want)
	}
	rec := eng.Recorder()
	transfers := rec.Value("board0/copier/transfers")
	moved := rec.Value("board0/copier/bytes-moved")
	aborted := rec.Value("board0/copier/aborted")
	if transfers != 1 || moved != 256 || aborted != 0 {
		t.Errorf("transfers %d, bytes moved %d, aborted %d; want 1, 256, 0", transfers, moved, aborted)
	}
}

func TestOverlapWithCPU(t *testing.T) {
	// The CPU starts a transfer, does bookkeeping that is shorter than
	// the transfer, then waits: total elapsed must equal the transfer
	// time, not the sum.
	eng := sim.NewEngine()
	b := bus.New(eng)
	c := New(eng, b, 0)
	xfer := b.Timing().TransferTime(bus.ReadShared, 512)
	bookkeeping := xfer / 2
	var end sim.Time
	eng.Spawn("cpu", func(p *sim.Process) {
		c.Start(bus.Transaction{Op: bus.ReadShared, PAddr: 0, Bytes: 512})
		p.Delay(bookkeeping)
		c.Wait(p)
		end = p.Now()
	})
	eng.Run()
	if end != xfer {
		t.Errorf("overlapped elapsed %v, want %v", end, xfer)
	}
}

func TestWaitAfterCompletion(t *testing.T) {
	// Bookkeeping longer than the transfer: Wait returns immediately.
	eng := sim.NewEngine()
	b := bus.New(eng)
	c := New(eng, b, 0)
	xfer := b.Timing().TransferTime(bus.ReadShared, 128)
	var end sim.Time
	eng.Spawn("cpu", func(p *sim.Process) {
		c.Start(bus.Transaction{Op: bus.ReadShared, PAddr: 0, Bytes: 128})
		p.Delay(2 * xfer)
		c.Wait(p)
		end = p.Now()
	})
	eng.Run()
	if end != 2*xfer {
		t.Errorf("elapsed %v, want %v", end, 2*xfer)
	}
	// The copier process stays parked for the next transfer until Close
	// retires it.
	if eng.Live() != 1 {
		t.Errorf("%d live processes before Close, want 1 (the parked copier)", eng.Live())
	}
	c.Close()
	if eng.Live() != 0 {
		t.Errorf("leaked %d processes", eng.Live())
	}
}

// TestOneProcessPerCopier: back-to-back transfers reuse the copier's
// one parked process; Close retires it, and a later Start spawns a
// fresh one.
func TestOneProcessPerCopier(t *testing.T) {
	eng := sim.NewEngine()
	b := bus.New(eng)
	c := New(eng, b, 0)
	transfer := func(p *sim.Process, i int) {
		c.Run(p, bus.Transaction{Op: bus.ReadShared, PAddr: uint32(i * 256), Bytes: 256})
	}
	eng.Spawn("cpu", func(p *sim.Process) {
		for i := 0; i < 5; i++ {
			transfer(p, i)
			if eng.Live() != 2 {
				t.Errorf("transfer %d: %d live processes, want 2 (cpu and copier)", i, eng.Live())
			}
		}
	})
	eng.Run()
	c.Close()
	if eng.Live() != 0 {
		t.Fatalf("%d live processes after Close, want 0", eng.Live())
	}
	eng.Spawn("cpu", func(p *sim.Process) { transfer(p, 5) })
	eng.Run()
	if got := eng.Recorder().Value("board0/copier/transfers"); got != 6 {
		t.Errorf("transfers = %d, want 6", got)
	}
	c.Close()
	if eng.Live() != 0 {
		t.Fatalf("%d live processes after the second Close, want 0", eng.Live())
	}
}

func TestStartWhileBusyPanics(t *testing.T) {
	eng := sim.NewEngine()
	b := bus.New(eng)
	c := New(eng, b, 0)
	eng.Spawn("cpu", func(p *sim.Process) {
		c.Start(bus.Transaction{Op: bus.ReadShared, PAddr: 0, Bytes: 128})
		defer func() {
			if recover() == nil {
				t.Error("second Start did not panic")
			}
		}()
		c.Start(bus.Transaction{Op: bus.ReadShared, PAddr: 0, Bytes: 128})
	})
	eng.Run()
}

func TestCopierRequesterStamped(t *testing.T) {
	eng := sim.NewEngine()
	b := bus.New(eng)
	c := New(eng, b, 3)
	eng.Spawn("cpu", func(p *sim.Process) {
		c.Run(p, bus.Transaction{Op: bus.WriteBack, PAddr: 0, Bytes: 256})
	})
	eng.Run()
	if got := eng.Recorder().Value("bus/board3/busy-ns"); got == 0 {
		t.Error("transfer not charged to board 3")
	}
}

// The headline bandwidth comparison (Section 2): the block copier should
// reach ~40 MB/s on the bus while a CPU copy loop manages < 5 MB/s.
func TestBandwidthAblation(t *testing.T) {
	eng := sim.NewEngine()
	b := bus.New(eng)
	c := New(eng, b, 0)
	const block = 512
	const n = 64 // 32 KB total
	var blockElapsed, cpuElapsed sim.Time
	eng.Spawn("cpu", func(p *sim.Process) {
		start := p.Now()
		for i := 0; i < n; i++ {
			c.Run(p, bus.Transaction{Op: bus.ReadShared, PAddr: uint32(i * block), Bytes: block})
		}
		blockElapsed = p.Now() - start

		start = p.Now()
		for i := 0; i < n; i++ {
			c.CopyByCPU(p, uint32(i*block), block, DefaultCPUCopyTiming())
		}
		cpuElapsed = p.Now() - start
	})
	eng.Run()

	bytes := float64(n * block)
	blockMBps := bytes / blockElapsed.Seconds() / 1e6
	cpuMBps := bytes / cpuElapsed.Seconds() / 1e6
	if blockMBps < 30 || blockMBps > 45 {
		t.Errorf("block copier bandwidth %.1f MB/s, want ~40", blockMBps)
	}
	if cpuMBps > 5.5 {
		t.Errorf("CPU copy loop bandwidth %.1f MB/s, want < 5.5", cpuMBps)
	}
	if blockMBps < 6*cpuMBps {
		t.Errorf("block copier only %.1fx faster than CPU loop", blockMBps/cpuMBps)
	}
}
