package metrics

import "sync"

// Histogram is a fixed-bucket histogram in the Prometheus style:
// cumulative bucket counts plus sum and count. Safe for concurrent use.
// Writer.Histogram exposes it.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // upper bounds, ascending; +Inf implicit
	counts []uint64  // len(bounds)+1; last is the +Inf bucket
	sum    float64
	count  uint64
}

// NewHistogram builds a histogram over the given ascending upper
// bounds.
func NewHistogram(bounds ...float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// LatencyBuckets spans 100µs to ~100s geometrically — wide enough for a
// sub-millisecond demo parse and a multi-second english/maspar one.
func LatencyBuckets() []float64 {
	out := make([]float64, 0, 13)
	for b := 1e-4; b < 200; b *= 3.1623 { // half-decade steps
		out = append(out, b)
	}
	return out
}

// BatchSizeBuckets covers coalesced batch sizes 1..64.
func BatchSizeBuckets() []float64 { return []float64{1, 2, 4, 8, 16, 32, 64} }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.count++
}

// Snapshot returns the cumulative bucket counts (aligned with the
// bounds, +Inf last), the sum, and the count.
func (h *Histogram) Snapshot() (bounds []float64, cumulative []uint64, sum float64, count uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cumulative = make([]uint64, len(h.counts))
	var acc uint64
	for i, c := range h.counts {
		acc += c
		cumulative[i] = acc
	}
	return h.bounds, cumulative, h.sum, h.count
}

// Mean returns sum/count (0 when empty).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile returns the p-quantile (0 < p ≤ 1) of an ascending slice by
// the one index rule the load tools share: sorted[max(int(p·n)−1, 0)].
// It returns the zero value for an empty slice.
func Quantile[T any](sorted []T, p float64) T {
	if len(sorted) == 0 {
		var zero T
		return zero
	}
	return sorted[max(int(p*float64(len(sorted)))-1, 0)]
}
