package memory

import (
	"testing"
	"testing/quick"
)

func TestGeometry(t *testing.T) {
	m := New(1<<20, 256)
	if m.Size() != 1<<20 || m.PageSize() != 256 || m.Frames() != 4096 {
		t.Errorf("geometry: size=%d ps=%d frames=%d", m.Size(), m.PageSize(), m.Frames())
	}
}

func TestBadGeometryPanics(t *testing.T) {
	cases := []struct{ size, ps int }{{0, 256}, {1024, 0}, {1000, 256}}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d, %d) did not panic", c.size, c.ps)
				}
			}()
			New(c.size, c.ps)
		}()
	}
}

func TestWordRoundTrip(t *testing.T) {
	m := New(64<<10, 256)
	m.WriteWord(0x1234, 0xdeadbeef)
	if got := m.ReadWord(0x1234); got != 0xdeadbeef {
		t.Errorf("ReadWord = %#x", got)
	}
	if got := m.ReadWord(0x1238); got != 0 {
		t.Errorf("adjacent word disturbed: %#x", got)
	}
}

func TestWordRoundTripProperty(t *testing.T) {
	m := New(64<<10, 256)
	f := func(addr uint16, v uint32) bool {
		a := uint32(addr) &^ 3
		m.WriteWord(a, v)
		return m.ReadWord(a) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBlockRoundTrip(t *testing.T) {
	m := New(64<<10, 256)
	in := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	m.WriteBlock(0x2000, in)
	out := m.ReadBlock(0x2000, 8)
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("block byte %d = %d", i, out[i])
		}
	}
}

func TestFrameMath(t *testing.T) {
	m := New(64<<10, 256)
	if m.Frame(0x1ff) != 1 || m.Frame(0x200) != 2 {
		t.Error("Frame boundaries wrong")
	}
	if m.FrameAddr(3) != 0x300 {
		t.Errorf("FrameAddr(3) = %#x", m.FrameAddr(3))
	}
}

func TestAllocFree(t *testing.T) {
	m := New(1024, 256) // 4 frames
	var frames []uint32
	for i := 0; i < 4; i++ {
		f, ok := m.AllocFrame()
		if !ok {
			t.Fatalf("alloc %d failed", i)
		}
		if m.Allocated(f) != true {
			t.Error("Allocated false after alloc")
		}
		frames = append(frames, f)
	}
	if _, ok := m.AllocFrame(); ok {
		t.Error("alloc succeeded with no free frames")
	}
	if m.FreeFrames() != 0 {
		t.Errorf("FreeFrames = %d", m.FreeFrames())
	}
	m.FreeFrame(frames[2])
	if m.FreeFrames() != 1 {
		t.Errorf("FreeFrames after free = %d", m.FreeFrames())
	}
	f, ok := m.AllocFrame()
	if !ok || f != frames[2] {
		t.Errorf("realloc gave %d, want %d", f, frames[2])
	}
}

func TestAllocZeroesFrame(t *testing.T) {
	m := New(1024, 256)
	f, _ := m.AllocFrame()
	m.WriteWord(m.FrameAddr(f), 42)
	m.FreeFrame(f)
	f2, _ := m.AllocFrame()
	if f2 != f {
		t.Fatalf("expected frame reuse, got %d vs %d", f2, f)
	}
	if got := m.ReadWord(m.FrameAddr(f2)); got != 0 {
		t.Errorf("reallocated frame not zeroed: %d", got)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	m := New(1024, 256)
	f, _ := m.AllocFrame()
	m.FreeFrame(f)
	defer func() {
		if recover() == nil {
			t.Error("double free did not panic")
		}
	}()
	m.FreeFrame(f)
}

func TestAllocDeterministicOrder(t *testing.T) {
	m := New(1024, 256)
	for want := uint32(0); want < 4; want++ {
		f, _ := m.AllocFrame()
		if f != want {
			t.Errorf("alloc order: got %d, want %d", f, want)
		}
	}
}
