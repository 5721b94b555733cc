package trace

import "fmt"

// Stats summarizes the composition and locality footprint of a trace,
// matching the characteristics the paper reports for its ATUM traces
// (length, fraction of operating-system references, footprint).
type Stats struct {
	Refs       int // total references
	IFetches   int
	Reads      int
	Writes     int
	Supervisor int // references issued in supervisor mode

	// UniquePages counts distinct cache pages touched, per page size.
	UniquePages map[int]int

	ASIDs map[uint8]int // references per address space
}

// Summarize drains src (up to max refs; max <= 0 means all) and gathers
// statistics using the given candidate page sizes.
func Summarize(src Source, max int, pageSizes ...int) *Stats {
	if len(pageSizes) == 0 {
		pageSizes = []int{128, 256, 512}
	}
	st := &Stats{
		UniquePages: make(map[int]int),
		ASIDs:       make(map[uint8]int),
	}
	seen := make(map[int]map[uint64]struct{}, len(pageSizes))
	for _, ps := range pageSizes {
		seen[ps] = make(map[uint64]struct{})
	}
	for {
		if max > 0 && st.Refs >= max {
			break
		}
		r, ok := src.Next()
		if !ok {
			break
		}
		st.Refs++
		switch r.Kind {
		case IFetch:
			st.IFetches++
		case Read:
			st.Reads++
		case Write:
			st.Writes++
		}
		if r.Super {
			st.Supervisor++
		}
		st.ASIDs[r.ASID]++
		for _, ps := range pageSizes {
			key := uint64(r.ASID)<<32 | uint64(r.Page(ps))
			seen[ps][key] = struct{}{}
		}
	}
	for _, ps := range pageSizes {
		st.UniquePages[ps] = len(seen[ps])
	}
	return st
}

// SupervisorFraction returns the fraction of references issued in
// supervisor mode.
func (s *Stats) SupervisorFraction() float64 {
	if s.Refs == 0 {
		return 0
	}
	return float64(s.Supervisor) / float64(s.Refs)
}

// Footprint returns the touched memory in bytes for the given page
// size (unique pages × page size), or 0 if that size was not gathered.
func (s *Stats) Footprint(pageSize int) int {
	return s.UniquePages[pageSize] * pageSize
}

// String renders a one-line summary.
func (s *Stats) String() string {
	return fmt.Sprintf("refs=%d (I=%d R=%d W=%d) super=%.1f%% asids=%d footprint256=%dKB",
		s.Refs, s.IFetches, s.Reads, s.Writes,
		100*s.SupervisorFraction(), len(s.ASIDs), s.Footprint(256)/1024)
}
