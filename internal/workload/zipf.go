// Package workload generates synthetic memory-reference traces and
// shared-memory access patterns.
//
// The paper evaluates cache miss ratios with four ATUM traces of VAX
// 8200 / VMS executions (358k-540k four-byte references, ~25% operating
// system references accounting for ~50% of the misses, light
// multiprogramming). Those traces are not available, so this package
// synthesizes traces with the same structural properties: sequential
// instruction fetch with loops and calls, stack and heap data references
// with working-set locality, occasional sequential sweeps, and
// supervisor-mode bursts with deliberately poorer locality. Profiles in
// profiles.go are calibrated so the resulting cold-start miss ratios
// fall in the regime the paper reports (fractions of a percent for
// 128-256 KB caches).
package workload

import (
	"math"

	"vmp/internal/sim"
)

// Zipf samples integers in [0, n) with probability proportional to
// 1/(i+1)^s, using a precomputed cumulative table and binary search.
// It is deterministic given the Rand passed to Sample.
type Zipf struct {
	cdf []float64
}

// NewZipf builds a sampler over n items with exponent s >= 0.
// s = 0 degenerates to the uniform distribution.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("workload: Zipf over empty domain")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf}
}

// Sample draws one value in [0, n).
func (z *Zipf) Sample(r *sim.Rand) int {
	u := r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
