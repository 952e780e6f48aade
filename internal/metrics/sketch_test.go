package metrics

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"lme/internal/sim"
)

// exactQuantile is the nearest-rank reference: the value with rank
// ⌈q·N⌉ in the sorted sample (the convention Summarize pins).
func exactQuantile(xs []sim.Time, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]sim.Time(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx])
}

func sketchOf(xs []sim.Time) *Sketch {
	s := NewSketch()
	for _, x := range xs {
		s.Observe(x)
	}
	return s
}

// testDistributions covers random and adversarial shapes: uniform,
// heavy-tailed, constant, two-point, linear ramp, values planted on
// bucket boundaries (powers of γ), wide dynamic range, and zeros.
func testDistributions(rng *rand.Rand) map[string][]sim.Time {
	d := map[string][]sim.Time{}

	uniform := make([]sim.Time, 5000)
	for i := range uniform {
		uniform[i] = sim.Time(rng.Int63n(1_000_000))
	}
	d["uniform"] = uniform

	heavy := make([]sim.Time, 5000)
	for i := range heavy {
		// Exponential-ish tail: µs latencies spanning several decades.
		heavy[i] = sim.Time(math.Exp(rng.Float64()*14) + 1)
	}
	d["heavy-tail"] = heavy

	constant := make([]sim.Time, 1000)
	for i := range constant {
		constant[i] = 123_456
	}
	d["constant"] = constant

	twoPoint := make([]sim.Time, 1000)
	for i := range twoPoint {
		if i%10 == 0 {
			twoPoint[i] = 900_000
		} else {
			twoPoint[i] = 100
		}
	}
	d["two-point"] = twoPoint

	ramp := make([]sim.Time, 2000)
	for i := range ramp {
		ramp[i] = sim.Time(i + 1)
	}
	d["ramp"] = ramp

	boundaries := make([]sim.Time, 0, 600)
	for k := 0; k < 600; k++ {
		// Values at and adjacent to bucket boundaries γ^k.
		v := math.Pow(DefaultGamma, float64(k%400))
		boundaries = append(boundaries, sim.Time(v), sim.Time(v)+1)
	}
	d["boundaries"] = boundaries

	wide := []sim.Time{0, 0, 1, 2, 10, 1000, 1_000_000, 50_000_000_000}
	d["wide+zeros"] = wide

	single := []sim.Time{42}
	d["single"] = single

	return d
}

// TestSketchQuantileAccuracy checks the α = (γ−1)/(γ+1) relative error
// bound against the exact nearest-rank quantile on every distribution,
// across the full quantile range.
func TestSketchQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	qs := []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1}
	for name, xs := range testDistributions(rng) {
		s := sketchOf(xs)
		alpha := s.RelativeAccuracy()
		for _, q := range qs {
			got := s.QuantileFloat(q)
			want := exactQuantile(xs, q)
			// +1 absolute slack covers the sub-1 zero bucket collapsing
			// values in [0,1) to 0.
			if math.Abs(got-want) > alpha*want+1 {
				t.Errorf("%s: q=%v sketch=%v exact=%v (α=%v)", name, q, got, want, alpha)
			}
		}
		if int(s.Count()) != len(xs) {
			t.Errorf("%s: count %d want %d", name, s.Count(), len(xs))
		}
	}
}

// TestSketchStatsExactFields pins that Count, Mean and Max in Stats()
// are exact — identical to Summarize over the same samples — and that
// P50/P95 respect the error bound.
func TestSketchStatsExactFields(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for name, xs := range testDistributions(rng) {
		s := sketchOf(xs)
		got := s.Stats()
		want := Summarize(xs)
		if got.Count != want.Count || got.Mean != want.Mean || got.Max != want.Max {
			t.Errorf("%s: exact fields drifted: sketch {n=%d mean=%v max=%v} exact {n=%d mean=%v max=%v}",
				name, got.Count, got.Mean, got.Max, want.Count, want.Mean, want.Max)
		}
		alpha := s.RelativeAccuracy()
		for _, c := range []struct{ got, want sim.Time }{{got.P50, want.P50}, {got.P95, want.P95}} {
			if math.Abs(float64(c.got-c.want)) > alpha*float64(c.want)+1 {
				t.Errorf("%s: quantile %v vs exact %v exceeds α=%v", name, c.got, c.want, alpha)
			}
		}
	}
}

// TestSketchMergeCommutativeAssociative verifies Merge is insertion-order
// independent at the snapshot level: for integer-valued observations the
// float64 sums are exact, so any merge order yields a bit-identical
// snapshot (the property fleet reduction relies on for
// worker-count-independent tables).
func TestSketchMergeCommutativeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	parts := make([][]sim.Time, 4)
	var all []sim.Time
	for i := range parts {
		n := 200 + rng.Intn(800)
		parts[i] = make([]sim.Time, n)
		for j := range parts[i] {
			parts[i][j] = sim.Time(rng.Int63n(10_000_000))
		}
		all = append(all, parts[i]...)
	}

	mergeOrder := func(order []int) SketchSnapshot {
		acc := NewSketch()
		for _, i := range order {
			acc.Merge(sketchOf(parts[i]))
		}
		return acc.Snapshot()
	}

	ref := mergeOrder([]int{0, 1, 2, 3})
	for _, order := range [][]int{{3, 2, 1, 0}, {1, 3, 0, 2}, {2, 0, 3, 1}} {
		if got := mergeOrder(order); !reflect.DeepEqual(got, ref) {
			t.Fatalf("merge order %v changed the snapshot", order)
		}
	}

	// Associativity: (a⊕b)⊕(c⊕d) == ((a⊕b)⊕c)⊕d.
	ab := sketchOf(parts[0])
	ab.Merge(sketchOf(parts[1]))
	cd := sketchOf(parts[2])
	cd.Merge(sketchOf(parts[3]))
	ab.Merge(cd)
	if got := ab.Snapshot(); !reflect.DeepEqual(got, ref) {
		t.Fatal("grouped merge changed the snapshot")
	}

	// Merged sketch == sketch of the pooled sample.
	if got := sketchOf(all).Snapshot(); !reflect.DeepEqual(got, ref) {
		t.Fatal("merge of parts differs from sketch of the pooled sample")
	}
}

// TestSketchSnapshotRoundTrip pins that the wire snapshot is exact:
// reconstruction and JSON both round-trip without loss.
func TestSketchSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := make([]sim.Time, 3000)
	for i := range xs {
		xs[i] = sim.Time(rng.Int63n(2_000_000))
	}
	xs[0], xs[1] = 0, 0 // exercise the zero bucket
	s := sketchOf(xs)
	snap := s.Snapshot()

	back := FromSnapshot(snap)
	if !reflect.DeepEqual(back.Snapshot(), snap) {
		t.Fatal("FromSnapshot lost information")
	}
	for _, q := range []float64{0.5, 0.95, 0.999} {
		if back.QuantileFloat(q) != s.QuantileFloat(q) {
			t.Fatalf("q=%v drifted across snapshot", q)
		}
	}

	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var wire SketchSnapshot
	if err := json.Unmarshal(data, &wire); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wire, snap) {
		t.Fatal("JSON round trip mutated the snapshot")
	}
}

// TestSketchEmptyAndMergeEdges covers empty sketches and merging into /
// from empties.
func TestSketchEmptyAndMergeEdges(t *testing.T) {
	s := NewSketch()
	if s.QuantileFloat(0.5) != 0 || s.Quantile(0.95) != 0 || s.Mean() != 0 {
		t.Fatal("empty sketch must report zeros")
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Fatalf("empty Stats = %+v", st)
	}

	s.Merge(NewSketch()) // empty ⊕ empty
	if s.Count() != 0 {
		t.Fatal("merging empties must stay empty")
	}

	other := sketchOf([]sim.Time{10, 20, 30})
	s.Merge(other) // empty ⊕ x == x
	if !reflect.DeepEqual(s.Snapshot(), other.Snapshot()) {
		t.Fatal("empty ⊕ x must equal x")
	}
	other.Merge(NewSketch()) // x ⊕ empty == x
	if !reflect.DeepEqual(s.Snapshot(), other.Snapshot()) {
		t.Fatal("x ⊕ empty must equal x")
	}
}

// mapSketch is the differential oracle of the dense Sketch: the sketch as
// it was before its bucket table became a slice — a map keyed by bucket
// index, a logarithm per observation, indices sorted on every read.
type mapSketch struct {
	gamma, logGamma float64
	buckets         map[int32]uint64
	zero, count     uint64
	sum, min, max   float64
}

func newMapSketch(gamma float64) *mapSketch {
	return &mapSketch{gamma: gamma, logGamma: math.Log(gamma), buckets: map[int32]uint64{}}
}

func (m *mapSketch) observe(v float64) {
	if m.count == 0 || v < m.min {
		m.min = v
	}
	if m.count == 0 || v > m.max {
		m.max = v
	}
	m.count++
	m.sum += v
	if v < 1 {
		m.zero++
		return
	}
	m.buckets[int32(math.Ceil(math.Log(v)/m.logGamma))]++
}

func (m *mapSketch) merge(o *mapSketch) {
	if o.count == 0 {
		return
	}
	if m.count == 0 || o.min < m.min {
		m.min = o.min
	}
	if m.count == 0 || o.max > m.max {
		m.max = o.max
	}
	m.count += o.count
	m.sum += o.sum
	m.zero += o.zero
	for j, n := range o.buckets {
		m.buckets[j] += n
	}
}

func (m *mapSketch) snapshot() SketchSnapshot {
	snap := SketchSnapshot{Gamma: m.gamma, Count: m.count, Zero: m.zero, Sum: m.sum, Buckets: []SketchBucket{}}
	if m.count > 0 {
		snap.Min, snap.Max = m.min, m.max
	}
	for j, n := range m.buckets {
		snap.Buckets = append(snap.Buckets, SketchBucket{Index: j, Count: n})
	}
	sort.Slice(snap.Buckets, func(i, j int) bool { return snap.Buckets[i].Index < snap.Buckets[j].Index })
	return snap
}

func (m *mapSketch) quantile(q float64) float64 {
	if m.count == 0 {
		return 0
	}
	rank := min(max(uint64(math.Ceil(q*float64(m.count))), 1), m.count)
	clamp := func(v float64) float64 { return min(max(v, m.min), m.max) }
	if rank <= m.zero {
		return clamp(0)
	}
	cum := m.zero
	for _, b := range m.snapshot().Buckets {
		if cum += b.Count; cum >= rank {
			return clamp(2 * math.Pow(m.gamma, float64(b.Index)) / (m.gamma + 1))
		}
	}
	return m.max
}

// sketchValue draws one observation of the differential test: small and
// large integers, non-integers, values below 1, bucket boundaries and
// exact zeros.
func sketchValue(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return float64(rng.Intn(1 << 16))
	case 1:
		return float64(1<<16 - 2 + rng.Intn(4))
	case 2:
		return float64(rng.Int63n(1 << 40))
	case 3:
		return rng.Float64() // below 1
	case 4:
		return rng.Float64() * 70_000 // non-integer
	case 5:
		return math.Pow(DefaultGamma, float64(rng.Intn(900)))
	case 6:
		return math.Exp(rng.Float64() * 40)
	default:
		return 0
	}
}

// TestSketchMatchesMapOracle pins the dense sketch to the map-keyed one it
// replaced, bit for bit: same snapshot (scalars and bucket table), same
// quantiles, at the default and at other γ, after observing and after
// merging in any order.
func TestSketchMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	qs := []float64{0, 0.001, 0.01, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1}
	same := func(what string, s *Sketch, m *mapSketch) {
		t.Helper()
		if got, want := s.Snapshot(), m.snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: snapshot differs\n dense  %+v\n oracle %+v", what, got, want)
		}
		for _, q := range qs {
			if got, want := s.QuantileFloat(q), m.quantile(q); got != want {
				t.Fatalf("%s: q=%v dense %v oracle %v", what, q, got, want)
			}
		}
	}
	for _, gamma := range []float64{DefaultGamma, 1.005, 1.1, 2} {
		const parts = 5
		var dense [parts]*Sketch
		var oracle [parts]*mapSketch
		for p := range dense {
			dense[p], oracle[p] = NewSketchGamma(gamma), newMapSketch(gamma)
			same("empty", dense[p], oracle[p])
			for i := rng.Intn(3000); i > 0; i-- {
				v := sketchValue(rng)
				dense[p].ObserveFloat(v)
				oracle[p].observe(v)
			}
			same("observed", dense[p], oracle[p])
			if back := FromSnapshot(dense[p].Snapshot()); !reflect.DeepEqual(back.Snapshot(), dense[p].Snapshot()) {
				t.Fatalf("γ=%v: snapshot round trip differs", gamma)
			}
		}
		// Merge in three different orders: one oracle, three dense folds,
		// all four identical.
		all := newMapSketch(gamma)
		for _, o := range oracle {
			all.merge(o)
		}
		for _, order := range [][]int{{0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}, {2, 0, 4, 1, 3}} {
			folded := NewSketchGamma(gamma)
			for _, p := range order {
				folded.Merge(dense[p])
			}
			// The float sum depends on addition order; the oracle's is
			// one more order, so compare it apart.
			if d := math.Abs(folded.Sum() - all.sum); d > 1e-9*all.sum {
				t.Fatalf("γ=%v order %v: sum %v, oracle %v", gamma, order, folded.Sum(), all.sum)
			}
			folded.sum = all.sum
			same("merged", folded, all)
		}
	}
}

// TestSketchFromSnapshotRejectsWildBuckets pins that a snapshot cannot
// size the bucket table beyond what an observation could: indices below 0
// or past the largest float's bucket are dropped.
func TestSketchFromSnapshotRejectsWildBuckets(t *testing.T) {
	s := FromSnapshot(SketchSnapshot{Gamma: DefaultGamma, Count: 3, Min: 1, Max: 9, Sum: 12, Buckets: []SketchBucket{
		{Index: -4, Count: 1}, {Index: 7, Count: 1}, {Index: math.MaxInt32, Count: 1},
	}})
	if got := s.Snapshot().Buckets; len(got) != 1 || got[0] != (SketchBucket{Index: 7, Count: 1}) {
		t.Fatalf("kept buckets %+v, want only index 7", got)
	}
}

// TestSketchRejectsNonFinite pins that NaN and +Inf, which have no bucket,
// are refused by name instead of indexing the table with whatever a
// float-to-int conversion of them yields.
func TestSketchRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Errorf("observing %v did not panic", v)
				}
			}()
			NewSketch().ObserveFloat(v)
		}()
	}
}
