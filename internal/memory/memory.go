// Package memory models VMP's shared main memory: a sequence of cache
// page frames backed by static-column RAM optimized for block transfer
// (300 ns for the first longword of a sequential access, 100 ns for each
// subsequent one — charged by bus.Timing, which times every block
// transfer).
//
// The memory carries real byte data. Because the consistency protocol
// guarantees that a privately held page has exactly one copy and that
// write-back is the only bus transaction that modifies main memory, the
// simulator can keep a single backing store and let processors read and
// write it directly while the protocol (checked elsewhere) keeps those
// accesses race-free in simulated time.
package memory

import (
	"encoding/binary"
	"fmt"
)

// Memory is the shared main memory.
type Memory struct {
	data      []byte
	pageSize  int
	freeList  []uint32 // free frame numbers, LIFO
	allocated []bool
}

// New creates a memory of size bytes divided into frames of pageSize
// bytes. Both must be powers of two with pageSize dividing size.
func New(size, pageSize int) *Memory {
	if size <= 0 || pageSize <= 0 || size%pageSize != 0 {
		panic(fmt.Sprintf("memory: bad geometry size=%d pageSize=%d", size, pageSize))
	}
	m := &Memory{
		data:      make([]byte, size),
		pageSize:  pageSize,
		allocated: make([]bool, size/pageSize),
	}
	// Populate the free list high-to-low so Alloc hands out frame 0,
	// 1, 2... in order (deterministic and easy to read in tests).
	for f := m.Frames() - 1; f >= 0; f-- {
		m.freeList = append(m.freeList, uint32(f))
	}
	return m
}

// Size returns the memory size in bytes.
func (m *Memory) Size() int { return len(m.data) }

// PageSize returns the frame size in bytes.
func (m *Memory) PageSize() int { return m.pageSize }

// Frames returns the number of cache page frames.
func (m *Memory) Frames() int { return len(m.data) / m.pageSize }

// Frame returns the frame number containing physical address paddr.
func (m *Memory) Frame(paddr uint32) uint32 { return paddr / uint32(m.pageSize) }

// FrameAddr returns the first physical address of a frame.
func (m *Memory) FrameAddr(frame uint32) uint32 { return frame * uint32(m.pageSize) }

// ReadWord returns the 32-bit word at paddr (must be in range; 4-byte
// aligned addresses are the norm, but any in-range address works).
func (m *Memory) ReadWord(paddr uint32) uint32 {
	return binary.LittleEndian.Uint32(m.data[paddr : paddr+4])
}

// WriteWord stores a 32-bit word at paddr.
func (m *Memory) WriteWord(paddr uint32, v uint32) {
	binary.LittleEndian.PutUint32(m.data[paddr:paddr+4], v)
}

// ReadBlock copies out n bytes starting at paddr.
func (m *Memory) ReadBlock(paddr uint32, n int) []byte {
	out := make([]byte, n)
	copy(out, m.data[paddr:int(paddr)+n])
	return out
}

// WriteBlock stores b starting at paddr.
func (m *Memory) WriteBlock(paddr uint32, b []byte) {
	copy(m.data[paddr:int(paddr)+len(b)], b)
}

// AllocFrame takes a free frame, zeroing its contents. The second result
// is false when memory is exhausted (the page-out daemon's cue).
func (m *Memory) AllocFrame() (uint32, bool) {
	for len(m.freeList) > 0 {
		f := m.freeList[len(m.freeList)-1]
		m.freeList = m.freeList[:len(m.freeList)-1]
		if !m.allocated[f] {
			m.allocated[f] = true
			start := int(f) * m.pageSize
			clear(m.data[start : start+m.pageSize])
			return f, true
		}
	}
	return 0, false
}

// FreeFrame returns a frame to the allocator. Double frees panic: they
// are simulator bugs.
func (m *Memory) FreeFrame(f uint32) {
	if int(f) >= len(m.allocated) || !m.allocated[f] {
		panic(fmt.Sprintf("memory: free of unallocated frame %d", f))
	}
	m.allocated[f] = false
	m.freeList = append(m.freeList, f)
}

// FreeFrames reports how many frames remain unallocated.
func (m *Memory) FreeFrames() int {
	n := 0
	for _, a := range m.allocated {
		if !a {
			n++
		}
	}
	return n
}

// Allocated reports whether frame f is currently allocated.
func (m *Memory) Allocated(f uint32) bool {
	return int(f) < len(m.allocated) && m.allocated[f]
}
