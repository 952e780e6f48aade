package metrics

import (
	"fmt"
	"math"

	"lme/internal/sim"
)

// DefaultGamma is the bucket growth factor γ of the quantile sketch:
// consecutive bucket boundaries differ by 2%, giving a guaranteed
// relative quantile error of (γ−1)/(γ+1) ≈ 1% — tighter than any
// digit the experiment tables print.
const DefaultGamma = 1.02

// Sketch is a deterministic log-bucketed quantile sketch (the DDSketch
// construction): observation v > 0 lands in bucket ⌈log_γ(v)⌉, so every
// bucket spans a fixed γ ratio and any quantile estimate is within
// (γ−1)/(γ+1) relative error of the exact nearest-rank value. Memory is
// O(log_γ(max/min)) — independent of how many values are observed — and
// two sketches with the same γ merge by adding bucket counts, which is
// insertion-order independent: merging replica sketches in any order
// (or any worker count) yields bit-identical quantiles.
//
// Count, sum, min and max are tracked exactly; for the integer-valued
// µs durations this repository observes, the float64 sum stays exact
// (well below 2⁵³), so Mean matches the exact sample mean.
//
// Like the rest of the metrics layer the sketch is single-threaded.
type Sketch struct {
	gamma    float64
	logGamma float64

	// buckets[j] counts bucket j. Indices start at 0 (the bucket of
	// v = 1), so the table is dense: it grows to the largest index seen —
	// ⌈log_γ(max)⌉ entries, a few hundred at DefaultGamma for any duration
	// this repository measures — and ascending index order is slice order.
	buckets []uint64
	zero    uint64 // observations below 1 (zero-length durations)

	count    uint64
	sum      float64
	min, max float64
}

// NewSketch creates an empty sketch with DefaultGamma.
func NewSketch() *Sketch { return NewSketchGamma(DefaultGamma) }

// NewSketchGamma creates an empty sketch with the given growth factor
// (must exceed 1).
func NewSketchGamma(gamma float64) *Sketch {
	if !(gamma > 1) {
		panic(fmt.Sprintf("metrics: sketch gamma %v must be > 1", gamma))
	}
	return &Sketch{gamma: gamma, logGamma: math.Log(gamma)}
}

// Gamma reports the bucket growth factor.
func (s *Sketch) Gamma() float64 { return s.gamma }

// RelativeAccuracy is the guaranteed quantile error bound α = (γ−1)/(γ+1):
// |Quantile(q) − exact| ≤ α·exact for every q.
func (s *Sketch) RelativeAccuracy() float64 { return (s.gamma - 1) / (s.gamma + 1) }

// bucketIndex maps a positive value to its bucket: v ∈ (γ^(j−1), γ^j].
func (s *Sketch) bucketIndex(v float64) int32 {
	return int32(math.Ceil(math.Log(v) / s.logGamma))
}

// bucketValue is the estimate reported for bucket j: the midpoint
// 2γ^j/(γ+1), within α relative error of every value in the bucket.
func (s *Sketch) bucketValue(j int32) float64 {
	return 2 * math.Pow(s.gamma, float64(j)) / (s.gamma + 1)
}

// ObserveFloat folds one value. Values below 1 (including 0) share an
// exact zero bucket.
func (s *Sketch) ObserveFloat(v float64) {
	if s.count == 0 || v < s.min {
		s.min = v
	}
	if s.count == 0 || v > s.max {
		s.max = v
	}
	s.count++
	s.sum += v
	if v < 1 {
		s.zero++
		return
	}
	if !(v <= math.MaxFloat64) {
		panic(fmt.Sprintf("metrics: sketch observation %v is not finite", v))
	}
	j := s.bucketIndex(v)
	s.grow(j)
	s.buckets[j]++
}

// grow extends the bucket table to hold index j.
func (s *Sketch) grow(j int32) {
	if n := int(j) + 1; n > len(s.buckets) {
		s.buckets = append(s.buckets, make([]uint64, n-len(s.buckets))...)
	}
}

// Observe folds one duration.
func (s *Sketch) Observe(d sim.Time) { s.ObserveFloat(float64(d)) }

// Count reports how many values were observed.
func (s *Sketch) Count() uint64 { return s.count }

// Sum reports the exact sum of all observations.
func (s *Sketch) Sum() float64 { return s.sum }

// Mean reports the exact mean (0 when empty).
func (s *Sketch) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// Min reports the smallest observation (0 when empty).
func (s *Sketch) Min() float64 {
	if s.count == 0 {
		return 0
	}
	return s.min
}

// Max reports the largest observation (0 when empty).
func (s *Sketch) Max() float64 {
	if s.count == 0 {
		return 0
	}
	return s.max
}

// clamp bounds an estimate by the exact observed range, so the extreme
// quantiles (q→0, q→1) report the exact min/max.
func (s *Sketch) clamp(v float64) float64 {
	if v < s.min {
		return s.min
	}
	if v > s.max {
		return s.max
	}
	return v
}

// QuantileFloat estimates the nearest-rank q-quantile (q in [0,1]; 0
// when empty), within RelativeAccuracy of the exact value, using the
// same rank convention as Summarize: the value with rank ⌈q·N⌉.
func (s *Sketch) QuantileFloat(q float64) float64 {
	if s.count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(s.count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.count {
		rank = s.count
	}
	if rank <= s.zero {
		return s.clamp(0)
	}
	cum := s.zero
	for j, n := range s.buckets {
		cum += n
		if cum >= rank {
			return s.clamp(s.bucketValue(int32(j)))
		}
	}
	return s.max
}

// Quantile estimates the q-quantile as a duration, rounded to the µs.
func (s *Sketch) Quantile(q float64) sim.Time {
	return sim.Time(s.QuantileFloat(q) + 0.5)
}

// Stats summarises the sketch in the layout of Summarize: count, mean
// and max are exact; P50/P95 carry the α-bounded estimates.
func (s *Sketch) Stats() Stats {
	if s.count == 0 {
		return Stats{}
	}
	return Stats{
		Count: int(s.count),
		Mean:  sim.Time(s.Mean()),
		P50:   s.Quantile(0.50),
		P95:   s.Quantile(0.95),
		Max:   sim.Time(s.max + 0.5),
	}
}

// Merge folds o into s by adding bucket counts. Both sketches must share
// γ. Because bucket addition commutes, the merged quantiles do not
// depend on merge order — the property the fleet's replica reduction
// relies on for worker-count-independent tables.
func (s *Sketch) Merge(o *Sketch) {
	if o == nil || o.count == 0 {
		return
	}
	if o.gamma != s.gamma {
		panic(fmt.Sprintf("metrics: merging sketches with gamma %v and %v", s.gamma, o.gamma))
	}
	if s.count == 0 || o.min < s.min {
		s.min = o.min
	}
	if s.count == 0 || o.max > s.max {
		s.max = o.max
	}
	s.count += o.count
	s.sum += o.sum
	s.zero += o.zero
	s.grow(int32(len(o.buckets) - 1))
	for j, n := range o.buckets {
		s.buckets[j] += n
	}
}

// SketchBucket is one (index, count) pair of the wire snapshot.
type SketchBucket struct {
	Index int32  `json:"i"`
	Count uint64 `json:"n"`
}

// SketchSnapshot is the exact, serialisable form of a Sketch: the full
// bucket table plus the exact scalars. FromSnapshot reconstructs a
// sketch that is indistinguishable from the original, so snapshots can
// cross process or replica boundaries and still merge losslessly.
type SketchSnapshot struct {
	Gamma   float64        `json:"gamma"`
	Count   uint64         `json:"count"`
	Zero    uint64         `json:"zero,omitempty"`
	Sum     float64        `json:"sum"`
	Min     float64        `json:"min"`
	Max     float64        `json:"max"`
	Buckets []SketchBucket `json:"buckets"`
}

// Snapshot freezes the sketch: its non-empty buckets, sorted by index.
func (s *Sketch) Snapshot() SketchSnapshot {
	snap := SketchSnapshot{
		Gamma: s.gamma,
		Count: s.count,
		Zero:  s.zero,
		Sum:   s.sum,
		Min:   s.Min(),
		Max:   s.Max(),
	}
	snap.Buckets = make([]SketchBucket, 0, s.occupied())
	for j, n := range s.buckets {
		if n > 0 {
			snap.Buckets = append(snap.Buckets, SketchBucket{Index: int32(j), Count: n})
		}
	}
	return snap
}

// occupied counts the non-empty buckets.
func (s *Sketch) occupied() int {
	k := 0
	for _, n := range s.buckets {
		if n > 0 {
			k++
		}
	}
	return k
}

// FromSnapshot reconstructs a sketch from its wire form. A zero-valued
// snapshot (Gamma 0) yields an empty DefaultGamma sketch.
func FromSnapshot(snap SketchSnapshot) *Sketch {
	gamma := snap.Gamma
	if gamma == 0 {
		gamma = DefaultGamma
	}
	s := NewSketchGamma(gamma)
	s.count = snap.Count
	s.zero = snap.Zero
	s.sum = snap.Sum
	s.min = snap.Min
	s.max = snap.Max
	// No observation lands below bucket 0 or beyond the largest float's
	// bucket; a snapshot that says otherwise (it may come off a wire) does
	// not get to size the table.
	top := s.bucketIndex(math.MaxFloat64)
	for _, b := range snap.Buckets {
		if b.Index < 0 || b.Index > top {
			continue
		}
		s.grow(b.Index)
		s.buckets[b.Index] = b.Count
	}
	return s
}

// String renders the sketch compactly.
func (s *Sketch) String() string {
	return fmt.Sprintf("n=%d mean=%.0f p50=%v p95=%v max=%.0f (γ=%v, %d buckets)",
		s.count, s.Mean(), s.Quantile(0.50), s.Quantile(0.95), s.Max(), s.gamma, s.occupied())
}
