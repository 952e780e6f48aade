package bench

import (
	"math"
	"math/bits"
	"slices"
	"time"
)

// clockBase anchors the benchmark's monotonic clock; now() reads
// nanoseconds since it, so span timestamps of one process share an origin.
var clockBase = time.Now()

func now() int64 { return int64(time.Since(clockBase)) }

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of an
// ascending-sorted sample; 0 for an empty one.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median returns the middle value of xs (mean of the two middle ones for
// an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf is the median of f over the repeated runs of a pass.
func medianOf[T any](runs []T, f func(T) float64) float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = f(r)
	}
	return median(xs)
}

// bucketMedian is the throughput rule of the live workloads: the median
// of the per-second grant counts of the measured window. A single long
// window swings with every scheduling hiccup of a shared box; the median
// bucket does not.
func bucketMedian(counts []int64) float64 {
	xs := make([]float64, len(counts))
	for i, c := range counts {
		xs[i] = float64(c)
	}
	return median(xs)
}

// tailLadder is the percentile ladder tailPercentile picks from.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999}

// tailPercentile returns the highest percentile of the ladder that still
// has at least ten samples beyond it in a sample of n — the highest one
// worth reporting. It returns 0 when even the median has fewer.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		// The nearest-rank sample of p, and how many lie beyond it.
		rank := int(math.Ceil(p*float64(n) - 1e-9))
		if n-rank >= 10 {
			best = p
		}
	}
	return best
}

// logHist is a fixed-size log-bucket histogram of non-negative int64
// values (nanoseconds): four sub-buckets per octave, so a quantile read
// from it is within ±6.25% of the exact one. The traced pass keeps one per
// node and per link, where exact samples would cost more than the code
// being measured.
type logHist struct {
	b [histBuckets]uint32
	n uint64
}

const histBuckets = 8 + 37*4

func histIndex(v int64) int {
	if v < 8 {
		return int(max(v, 0))
	}
	e := bits.Len64(uint64(v)) - 1 // ≥ 3
	sub := int(v>>(e-2)) & 3
	return min(8+(e-3)*4+sub, histBuckets-1)
}

// histMid is the midpoint of bucket i, the value a quantile reports.
func histMid(i int) float64 {
	if i < 8 {
		return float64(i)
	}
	e := (i-8)/4 + 3
	sub := (i - 8) % 4
	lo := float64(int64(1)<<e) + float64(sub)*float64(int64(1)<<(e-2))
	return lo + float64(int64(1)<<(e-2))/2
}

func (h *logHist) add(v int64) {
	h.b[histIndex(v)]++
	h.n++
}

func (h *logHist) merge(o *logHist) {
	for i, c := range o.b {
		h.b[i] += c
	}
	h.n += o.n
}

// quantile returns the nearest-rank p-quantile's bucket midpoint.
func (h *logHist) quantile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p * float64(h.n)))
	var seen uint64
	for i, c := range h.b {
		seen += uint64(c)
		if seen >= rank {
			return histMid(i)
		}
	}
	return histMid(histBuckets - 1)
}
