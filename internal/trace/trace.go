// Package trace defines memory-reference traces: the unit of workload
// the VMP cache studies consume.
//
// A trace is a sequence of Ref values, each one 4-byte memory reference
// (instruction fetch, data read, or data write) tagged with an address
// space identifier (ASID) and a supervisor bit, mirroring the ATUM VAX
// 8200 traces used in the paper (which include VMS operating-system
// references and a small degree of multiprogramming).
//
// Traces can be streamed from generators (package workload), from memory
// (SliceSource), or from files in a compact binary format; a readable
// text format is written for inspection.
package trace

import "fmt"

// Kind classifies a memory reference.
type Kind uint8

// Reference kinds.
const (
	IFetch Kind = iota // instruction fetch
	Read               // data read
	Write              // data write
)

// String returns "I", "R" or "W".
func (k Kind) String() string {
	switch k {
	case IFetch:
		return "I"
	case Read:
		return "R"
	case Write:
		return "W"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Ref is a single 4-byte memory reference.
type Ref struct {
	Kind  Kind
	Super bool   // issued in supervisor mode (operating-system reference)
	ASID  uint8  // address-space identifier
	VAddr uint32 // virtual byte address
}

// String renders the reference in the text trace format, e.g.
// "R u 3 0x0001f2c0".
func (r Ref) String() string {
	mode := "u"
	if r.Super {
		mode = "s"
	}
	return fmt.Sprintf("%s %s %d 0x%08x", r.Kind, mode, r.ASID, r.VAddr)
}

// IsWrite reports whether the reference modifies memory.
func (r Ref) IsWrite() bool { return r.Kind == Write }

// Page returns the cache-page number of the reference for the given
// page size, which must be a power of two.
func (r Ref) Page(pageSize int) uint32 { return r.VAddr / uint32(pageSize) }

// Source is a stream of references. Next returns ok=false when the
// stream is exhausted.
type Source interface {
	Next() (Ref, bool)
}

// SliceSource streams references from a slice.
type SliceSource struct {
	refs []Ref
	pos  int
}

// NewSliceSource returns a Source reading from refs.
func NewSliceSource(refs []Ref) *SliceSource { return &SliceSource{refs: refs} }

// Next implements Source.
func (s *SliceSource) Next() (Ref, bool) {
	if s.pos >= len(s.refs) {
		return Ref{}, false
	}
	r := s.refs[s.pos]
	s.pos++
	return r, true
}

// Len returns the total number of references in the slice.
func (s *SliceSource) Len() int { return len(s.refs) }

// Collect drains a source into a slice, stopping after max references
// (max <= 0 means no limit).
func Collect(src Source, max int) []Ref {
	var out []Ref
	for {
		if max > 0 && len(out) >= max {
			return out
		}
		r, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

// Interleave round-robins between sources with the given burst lengths:
// burst[i] consecutive references are drawn from srcs[i] before moving
// to the next source. Exhausted sources are skipped. This models the
// coarse multiprogramming present in the ATUM traces.
func Interleave(srcs []Source, burst []int) Source {
	if len(srcs) != len(burst) {
		panic("trace: Interleave length mismatch")
	}
	return &interleaveSource{srcs: srcs, burst: burst}
}

type interleaveSource struct {
	srcs  []Source
	burst []int
	cur   int
	used  int
	dead  int
}

func (s *interleaveSource) Next() (Ref, bool) {
	for s.dead < len(s.srcs) {
		if s.srcs[s.cur] == nil || s.used >= s.burst[s.cur] {
			s.advance()
			continue
		}
		r, ok := s.srcs[s.cur].Next()
		if !ok {
			s.srcs[s.cur] = nil
			s.dead++
			s.advance()
			continue
		}
		s.used++
		return r, true
	}
	return Ref{}, false
}

func (s *interleaveSource) advance() {
	s.cur = (s.cur + 1) % len(s.srcs)
	s.used = 0
}
