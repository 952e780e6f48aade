package harness

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"lme/internal/baseline"
	"lme/internal/coloring"
	"lme/internal/core"
	"lme/internal/fleet"
	"lme/internal/graph"
	"lme/internal/lme1"
	"lme/internal/lme2"
	"lme/internal/manet"
	"lme/internal/metrics"
	"lme/internal/sim"
	"lme/internal/span"
	"lme/internal/workload"
)

// Quality scales an experiment's sweep sizes and horizons.
type Quality int

// Quick is sized for unit tests and testing.B iterations; Full is the
// configuration whose output EXPERIMENTS.md records.
const (
	Quick Quality = iota + 1
	Full
)

// Experiment is one reproducible unit of the paper's evaluation (see the
// per-experiment index in DESIGN.md §2). An experiment declares its
// independent runs as a Plan; the Engine executes the plan serially or
// on all cores through the same code path.
type Experiment struct {
	ID    string
	Title string
	// Plan declares the experiment's jobs and reduction for the given
	// quality, replicating every seeded measurement `replicas` times.
	Plan func(q Quality, replicas int) (*Plan, error)
}

// Run executes the experiment serially with a single replica per
// measurement — the compatibility path used by unit tests and
// benchmarks. cmd/lmebench runs the same plans through a wider Engine.
func (e Experiment) Run(q Quality) (*Table, error) {
	return Engine{Workers: 1, Replicas: 1}.Run(e, q)
}

// Experiments lists every experiment in DESIGN.md order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "E1", Title: "Table 1: comparison of algorithms (measured)", Plan: Table1},
		{ID: "E2", Title: "Empirical failure locality after a crash", Plan: FailureLocality},
		{ID: "E3", Title: "Static chain response time vs n (Theorem 26)", Plan: StaticChain},
		{ID: "E4", Title: "Algorithm 2 under mobility vs n (Theorem 25)", Plan: MobileAlg2},
		{ID: "E5", Title: "Algorithm 1 response time vs δ and n (Theorems 17/23)", Plan: Alg1Scaling},
		{ID: "E6", Title: "Recolouring rounds and palette (Lemmas 15/21)", Plan: ColoringScaling},
		{ID: "E7", Title: "Double doorway traversal vs δ (Lemmas 1–2)", Plan: DoorwayLatency},
		{ID: "E8", Title: "Figure 6 scenario: crash, blocking, recovery by movement", Plan: Figure6},
		{ID: "E9", Title: "Safety sweep: violations across algorithms and conditions", Plan: SafetySweep},
		{ID: "E10", Title: "Message complexity per critical section (paper's future work, Ch. 7)", Plan: MessageComplexity},
		{ID: "E11", Title: "Locality dividend: local vs global mutual exclusion throughput (Ch. 1)", Plan: LocalityDividend},
		{ID: "E12", Title: "FIFO-link assumption ablation (Ch. 7 open question)", Plan: FIFOAblation},
	}
}

// algName identifies an algorithm row in the tables.
type algName string

const (
	algCM       algName = "chandy-misra"
	algCS       algName = "choy-singh"
	algA1Greedy algName = "alg1-greedy"
	algA1Linial algName = "alg1-linial"
	algA1Reduce algName = "alg1-linial-reduce"
	algA2       algName = "alg2"
	algA2NoNtf  algName = "alg2-nonotify"
	algGlobal   algName = "global-token"
)

// paperFL and paperRT are the claimed bounds from Table 1 of the paper.
var (
	paperFL = map[algName]string{
		algCM:       "n",
		algCS:       "4",
		algA1Greedy: "n",
		algA1Linial: "max(log*n,4)+2",
		algA1Reduce: "max(log*n,4)+2",
		algA2:       "2",
		algA2NoNtf:  "2",
	}
	paperRT = map[algName]string{
		algCM:       "O(n)",
		algCS:       "O(δ²)",
		algA1Greedy: "O((n+δ³)δ)",
		algA1Linial: "O((log*n+δ⁴)δ)",
		algA1Reduce: "O((log*n+δ²+δ³)δ)",
		algA2:       "O(n²);O(n) static",
		algA2NoNtf:  "O(n²)",
	}
)

// factoryFor builds the protocol factory of an algorithm for the given
// layout (some algorithms need n, δ or the static graph).
func factoryFor(a algName, pts []graph.Point, radius float64) func(core.NodeID) core.Protocol {
	g := graph.UnitDisk(pts, radius)
	n := len(pts)
	delta := max(g.MaxDegree(), 1)
	switch a {
	case algCM:
		return func(core.NodeID) core.Protocol { return baseline.NewChandyMisra() }
	case algCS:
		return baseline.NewChoySingh(g)
	case algA1Greedy:
		return func(core.NodeID) core.Protocol {
			return lme1.New(lme1.Config{Variant: lme1.VariantGreedy})
		}
	case algA1Linial:
		return func(core.NodeID) core.Protocol {
			return lme1.New(lme1.Config{Variant: lme1.VariantLinial, N: n, Delta: delta})
		}
	case algA1Reduce:
		return func(core.NodeID) core.Protocol {
			return lme1.New(lme1.Config{Variant: lme1.VariantLinialReduce, N: n, Delta: delta})
		}
	case algA2:
		return func(core.NodeID) core.Protocol { return lme2.New() }
	case algA2NoNtf:
		return func(core.NodeID) core.Protocol { return baseline.NewNoNotify() }
	case algGlobal:
		return baseline.NewGlobalToken(g)
	default:
		panic(fmt.Sprintf("harness: unknown algorithm %q", a))
	}
}

// ms renders a sim.Time with sub-millisecond precision.
func ms(t sim.Time) string {
	return fmt.Sprintf("%.2fms", float64(t)/1000)
}

// timeSample extracts a virtual-time statistic from every replica value
// of key into a sample (the µs magnitudes MSStat renders).
func timeSample(rs *ResultSet, key string, f func(v any) sim.Time) fleet.Sample {
	return rs.Sample(key, func(v any) float64 { return float64(f(v)) })
}

// runStatic builds and runs a static workload and returns the run.
func runStatic(ctx context.Context, a algName, pts []graph.Point, radius float64, seed uint64, horizon sim.Time, wl workload.Config) (*Run, error) {
	r, err := Build(Spec{
		Seed:        seed,
		Points:      pts,
		Radius:      radius,
		NewProtocol: factoryFor(a, pts, radius),
		Workload:    wl,
	})
	if err != nil {
		return nil, err
	}
	if err := r.RunContext(ctx, horizon); err != nil {
		return nil, fmt.Errorf("%s: %w", a, err)
	}
	return r, nil
}

// table1Static is one static replica's measurement slice for E1.
type table1Static struct {
	mean, p95  sim.Time
	msgPerMeal float64
	violations int
	// phases maps qualified phase names ("doorway:sdf") to total time,
	// from the span layer's fold of the run's event stream.
	phases map[string]sim.Time
	// rt is the replica's response-time sketch snapshot; Reduce merges
	// the replicas' sketches so percentile cells describe the pooled
	// sample, bit-identical for any worker count.
	rt metrics.SketchSnapshot
}

// table1Mobile is one mobile replica's measurement slice for E1.
type table1Mobile struct {
	mean       sim.Time
	violations int
}

// Table1 measures every algorithm on one common random geometric topology:
// static response time, response time under mobility, empirical blocked
// radius around a crash, and safety violations — the measured counterpart
// of the paper's Table 1.
func Table1(q Quality, replicas int) (*Plan, error) {
	n, horizon := 48, sim.Time(6_000_000)
	if q == Quick {
		n, horizon = 24, 2_000_000
	}
	radius := ConnectedRadius(n)
	pts, err := GeometricPoints(n, radius, 11)
	if err != nil {
		return nil, err
	}
	wl := workload.Config{EatTime: 5_000, ThinkMax: 10_000, InitialStagger: 5_000}
	algs := []algName{algCM, algCS, algA1Greedy, algA1Linial, algA2}
	p := NewPlan()
	for _, a := range algs {
		a := a
		p.Add("static/"+string(a), 21, replicas, func(ctx context.Context, seed uint64) (any, error) {
			r, err := Build(Spec{
				Seed: seed, Points: pts, Radius: radius,
				NewProtocol: factoryFor(a, pts, radius),
				Workload:    wl,
				Spans:       true,
			})
			if err != nil {
				return nil, err
			}
			if err := r.RunContext(ctx, horizon); err != nil {
				return nil, fmt.Errorf("%s: %w", a, err)
			}
			r.FinalizeSpans()
			st := r.Recorder.Stats()
			phases := make(map[string]sim.Time)
			for _, ps := range r.Spans.Summary().Phases {
				phases[ps.Name] = ps.TotalUS
			}
			return table1Static{
				mean: st.Mean, p95: st.P95,
				msgPerMeal: r.MessagesPerMeal(),
				violations: len(r.Checker.Violations()),
				phases:     phases,
				rt:         r.Recorder.Sketch().Snapshot(),
			}, nil
		})
		if a != algCS { // Choy–Singh is a static-only baseline.
			p.Add("mobile/"+string(a), 22, replicas, func(ctx context.Context, seed uint64) (any, error) {
				r, err := Build(Spec{
					Seed: seed, Points: pts, Radius: radius,
					NewProtocol: factoryFor(a, pts, radius),
					Workload:    wl,
				})
				if err != nil {
					return nil, err
				}
				if err := r.Start(); err != nil {
					return nil, err
				}
				movers := []core.NodeID{1, 7, 13, 19}
				manet.Waypoint{Speed: 0.3, PauseMin: 100_000, PauseMax: 400_000, Until: horizon * 3 / 4}.
					Attach(r.World, movers)
				if err := r.RunContext(ctx, horizon); err != nil {
					return nil, fmt.Errorf("%s mobile: %w", a, err)
				}
				return table1Mobile{
					mean:       r.Recorder.Stats().Mean,
					violations: len(r.Checker.Violations()),
				}, nil
			})
		}
		// Crash run: fail the highest-degree node mid-run and measure
		// the blocked radius.
		p.Add("crash/"+string(a), 23, replicas, func(ctx context.Context, seed uint64) (any, error) {
			return blockedRadius(ctx, a, pts, radius, seed, horizon)
		})
	}
	p.Reduce = func(rs *ResultSet) (*Table, error) {
		t := &Table{
			ID:    "E1",
			Title: fmt.Sprintf("Table 1 measured on a connected geometric graph (n=%d, δ=%d)", n, graph.UnitDisk(pts, radius).MaxDegree()),
			Header: []string{"algorithm", "FL (paper)", "FL (measured)", "FL (spans)", "RT (paper)",
				"RT static mean", "RT static p95", "RT mobile mean", "phase split", "msg/meal", "violations"},
		}
		for _, a := range algs {
			static := "static/" + string(a)
			meanS := timeSample(rs, static, func(v any) sim.Time { return v.(table1Static).mean })
			p95S := timeSample(rs, static, func(v any) sim.Time { return v.(table1Static).p95 })
			msgS := rs.Sample(static, func(v any) float64 { return v.(table1Static).msgPerMeal })
			violations := rs.SumInt(static, func(v any) int { return v.(table1Static).violations })
			merged := map[string]sim.Time{}
			var rtCell fleet.SketchCell
			for _, v := range rs.Values(static) {
				for name, d := range v.(table1Static).phases {
					merged[name] += d
				}
				rtCell.Add(v.(table1Static).rt)
			}
			// Pooled p95 from the merged replica sketches; the per-replica
			// p95 sample still supplies the CellStats spread.
			p95Cell := Stat{
				Text:   fmt.Sprintf("%.2fms", rtCell.Quantile(0.95)/1000),
				Sample: p95S,
			}
			mobileCell := any("n/a")
			if a != algCS {
				mobile := "mobile/" + string(a)
				mobileCell = MSStat(timeSample(rs, mobile, func(v any) sim.Time { return v.(table1Mobile).mean }))
				violations += rs.SumInt(mobile, func(v any) int { return v.(table1Mobile).violations })
			}
			radiusS := rs.Sample("crash/"+string(a), func(v any) float64 { return float64(v.(crashLocality).radius) })
			spanS := rs.Sample("crash/"+string(a), func(v any) float64 { return float64(v.(crashLocality).spanDist) })
			t.AddRow(string(a), paperFL[a], MaxStat(radiusS), MaxStat(spanS), paperRT[a],
				MSStat(meanS), p95Cell, mobileCell, phaseSplit(merged), NumStat(msgS, 1), violations)
		}
		t.AddNote("FL (measured) = max graph distance from the crashed node to a node blocked for the rest of the run; saturated workload")
		t.AddNote("FL (spans) = max graph distance to a node in the wait-for closure of the crash site (span-layer attribution of the same runs)")
		t.AddNote("phase split = share of attempt time per span phase in the static run (doorway entries, recolouring, fork collection, eating)")
		t.AddNote("msg/meal = protocol messages per critical-section entry in the static run")
		t.AddNote("RT static p95 = p95 of the pooled response times across replicas, from merged per-replica quantile sketches (±1%% relative)")
		t.AddNote("absolute times depend on the simulator's ν=10ms, τ=5ms; orderings and growth are the comparable quantities")
		return t, nil
	}
	return p, nil
}

// phaseSplit renders the share of total attempt time spent in each phase
// group (doorway details merged), in the fixed taxonomy order.
func phaseSplit(merged map[string]sim.Time) string {
	groups := map[string]sim.Time{}
	var total sim.Time
	for name, d := range merged {
		if i := strings.IndexByte(name, ':'); i >= 0 {
			name = name[:i]
		}
		groups[name] += d
		total += d
	}
	if total == 0 {
		return ""
	}
	var parts []string
	for _, name := range []string{span.PhaseDoorway, span.PhaseRecolor, span.PhaseCollect, span.PhaseEat} {
		if d, ok := groups[name]; ok {
			parts = append(parts, fmt.Sprintf("%s %.0f%%", name, 100*float64(d)/float64(total)))
		}
	}
	return strings.Join(parts, " ")
}

// crashLocality is one crash replica's measurement: the starvation-based
// blocked radius (the Prober's view of who made no progress) and the span
// layer's attribution of the same run (max communication-graph distance
// and max wait-chain depth of nodes in the wait-for closure of the crash
// site).
type crashLocality struct {
	radius   int
	spanDist int
	spanHop  int
}

// blockedRadius crashes the max-degree node of the layout under a
// saturated workload and reports the empirical failure locality, both
// starvation-based and span-attributed.
func blockedRadius(ctx context.Context, a algName, pts []graph.Point, radius float64, seed uint64, horizon sim.Time) (crashLocality, error) {
	g := graph.UnitDisk(pts, radius)
	victim := 0
	for v := 1; v < g.N(); v++ {
		if g.Degree(v) > g.Degree(victim) {
			victim = v
		}
	}
	r, err := Build(Spec{
		Seed: seed, Points: pts, Radius: radius,
		NewProtocol: factoryFor(a, pts, radius),
		Workload:    workload.Config{EatTime: 4_000}, // saturated
		Spans:       true,
	})
	if err != nil {
		return crashLocality{}, err
	}
	crashAt := horizon / 4
	r.World.CrashAt(core.NodeID(victim), crashAt)
	if err := r.RunContext(ctx, horizon); err != nil {
		return crashLocality{}, fmt.Errorf("%s crash run: %w", a, err)
	}
	blocked := r.Prober.StarvedSince(crashAt + (horizon-crashAt)/3)
	out := crashLocality{radius: metrics.BlockedRadius(r.World.CommGraph(), core.NodeID(victim), blocked)}
	r.FinalizeSpans()
	for _, imp := range r.Spans.Impacts() {
		if imp.MaxDist > out.spanDist {
			out.spanDist = imp.MaxDist
		}
		if imp.MaxHop > out.spanHop {
			out.spanHop = imp.MaxHop
		}
	}
	return out, nil
}

// FailureLocality measures the blocked radius on lines and geometric
// graphs for the algorithms with contrasting failure localities.
func FailureLocality(q Quality, replicas int) (*Plan, error) {
	lineN, horizon := 32, sim.Time(8_000_000)
	seeds := []uint64{31, 32, 33}
	if q == Quick {
		lineN, horizon = 16, 3_000_000
		seeds = seeds[:1]
	}
	geoPts, err := GeometricPoints(lineN, ConnectedRadius(lineN), 17)
	if err != nil {
		return nil, err
	}
	algs := []algName{algCM, algA1Greedy, algA1Linial, algA2}
	p := NewPlan()
	for _, a := range algs {
		a := a
		for si, seed := range seeds {
			p.Add(fmt.Sprintf("line/%s/%d", a, si), seed, replicas, func(ctx context.Context, seed uint64) (any, error) {
				return blockedRadius(ctx, a, LinePoints(lineN, 0.1), 0.11, seed, horizon)
			})
			p.Add(fmt.Sprintf("geo/%s/%d", a, si), seed, replicas, func(ctx context.Context, seed uint64) (any, error) {
				return blockedRadius(ctx, a, geoPts, ConnectedRadius(lineN), seed, horizon)
			})
		}
	}
	p.Reduce = func(rs *ResultSet) (*Table, error) {
		t := &Table{
			ID:    "E2",
			Title: "Empirical failure locality: blocked radius after one crash (saturated workload)",
			Header: []string{"algorithm", "FL (paper)", "line radius", "line FL(spans)",
				"geometric radius", "geo FL(spans)"},
		}
		runs := 0
		for _, a := range algs {
			var lineS, lineSpanS, geoS, geoSpanS fleet.Sample
			for si := range seeds {
				for _, v := range rs.Values(fmt.Sprintf("line/%s/%d", a, si)) {
					lineS.Add(float64(v.(crashLocality).radius))
					lineSpanS.Add(float64(v.(crashLocality).spanDist))
				}
				for _, v := range rs.Values(fmt.Sprintf("geo/%s/%d", a, si)) {
					geoS.Add(float64(v.(crashLocality).radius))
					geoSpanS.Add(float64(v.(crashLocality).spanDist))
				}
			}
			runs = lineS.N()
			t.AddRow(string(a), paperFL[a], MaxStat(lineS), MaxStat(lineSpanS),
				MaxStat(geoS), MaxStat(geoSpanS))
		}
		t.AddNote("radius is the worst case over %d seeded runs; n=%d; the paper predicts alg2 ≤ 2 and large radii for chandy-misra/alg1-greedy", runs, lineN)
		t.AddNote("FL(spans) = max graph distance to a node whose open attempt sits in the wait-for closure of the crash site (span-layer attribution)")
		return t, nil
	}
	return p, nil
}

// StaticChain measures two things on static lines. Part one sweeps the
// line length under saturation: Theorem 26 predicts Algorithm 2's worst
// response grows linearly in n, and Chandy–Misra's convoy effect grows
// faster. Part two is the scripted interference scenario that isolates
// what the notification mechanism buys (the Theorem 26 discussion): a
// hungry node whose thinking higher-priority neighbour becomes hungry
// mid-collection loses its shared fork to a priority steal without
// notifications, and does not with them.
func StaticChain(q Quality, replicas int) (*Plan, error) {
	ns := []int{8, 16, 32, 64}
	horizon := sim.Time(20_000_000)
	if q == Quick {
		ns = []int{8, 16}
		horizon = 6_000_000
	}
	satAlgs := []algName{algA2, algA2NoNtf, algCM}
	stealAlgs := []algName{algA2, algA2NoNtf}
	p := NewPlan()
	for _, n := range ns {
		n := n
		for _, a := range satAlgs {
			a := a
			p.Add(fmt.Sprintf("sat/%d/%s", n, a), 41, replicas, func(ctx context.Context, seed uint64) (any, error) {
				r, err := runStatic(ctx, a, LinePoints(n, 0.1), 0.11, seed, horizon, workload.Config{EatTime: 4_000})
				if err != nil {
					return nil, err
				}
				return r.Recorder.Stats().Max, nil
			})
		}
		for _, a := range stealAlgs {
			a := a
			// The steal scenario is fully scripted (fixed delays, no
			// random workload), so one run is the measurement.
			p.AddOne(fmt.Sprintf("steal/%d/%s", n, a), func(ctx context.Context) (any, error) {
				return stealScenario(ctx, a, n)
			})
		}
	}
	p.Reduce = func(rs *ResultSet) (*Table, error) {
		t := &Table{
			ID:     "E3",
			Title:  "Static line: saturated sweep (top) and scripted priority-steal scenario (bottom)",
			Header: []string{"measurement", "n", "alg2", "alg2-nonotify", "chandy-misra"},
		}
		for _, n := range ns {
			row := []any{"max RT, saturated", n}
			for _, a := range satAlgs {
				row = append(row, MSStat(timeSample(rs, fmt.Sprintf("sat/%d/%s", n, a), func(v any) sim.Time { return v.(sim.Time) })))
			}
			t.AddRow(row...)
		}
		for _, n := range ns {
			row := []any{"victim RT, steal scenario", n}
			for _, a := range stealAlgs {
				v, err := rs.First(fmt.Sprintf("steal/%d/%s", n, a))
				if err != nil {
					return nil, err
				}
				row = append(row, ms(v.(sim.Time)))
			}
			row = append(row, "n/a")
			t.AddRow(row...)
		}
		t.AddNote("steal scenario: node 0 eats; node 1 becomes hungry and waits; nodes 2..n-1 become hungry staggered — without notifications node 2 (thinking, higher priority) steals node 1's shared fork and delays it by ~τ")
		t.AddNote("the O(n) vs O(n²) separation of Theorem 26 is an adversarial worst-case bound: uniform random schedules do not realise it, because each priority steal reverses the stolen edge (self-stabilisation); the steal scenario shows the mechanism itself")
		return t, nil
	}
	return p, nil
}

// stealScenario runs the scripted interference chain and returns the
// victim's (node 1) response time.
func stealScenario(ctx context.Context, a algName, n int) (sim.Time, error) {
	pts := LinePoints(n, 0.1)
	r, err := Build(Spec{
		Seed: 1, Points: pts, Radius: 0.11,
		NewProtocol: factoryFor(a, pts, 0.11),
		Workload:    workload.Config{Participants: []core.NodeID{}}, // scripted
		MinDelay:    1_000, MaxDelay: 1_000,
	})
	if err != nil {
		return 0, err
	}
	if err := r.Start(); err != nil {
		return 0, err
	}
	w := r.World
	const (
		eat      = sim.Time(10_000)
		hungryAt = sim.Time(1_000)
	)
	// One-shot dining: every eater leaves the CS after eat time and
	// never becomes hungry again.
	w.AddStateListener(core.ListenerFunc(func(id core.NodeID, old, new core.State, at sim.Time) {
		if new == core.Eating {
			p := w.Protocol(id)
			w.At(w.Now()+eat, func() {
				if p.State() == core.Eating {
					p.ExitCS()
				}
			})
		}
	}))
	resp := sim.Time(-1)
	w.AddStateListener(core.ListenerFunc(func(id core.NodeID, old, new core.State, at sim.Time) {
		if id == 1 && new == core.Eating && resp < 0 {
			resp = at - hungryAt
		}
	}))
	w.At(0, func() { w.Protocol(0).BecomeHungry() })
	w.At(hungryAt, func() { w.Protocol(1).BecomeHungry() })
	for i := 2; i < n; i++ {
		i := i
		w.At(hungryAt+sim.Time(i-1)*5_000, func() { w.Protocol(core.NodeID(i)).BecomeHungry() })
	}
	if err := r.RunContext(ctx, sim.Time(n)*60_000+2_000_000); err != nil {
		return 0, err
	}
	if resp < 0 {
		return 0, fmt.Errorf("%s steal scenario: victim never ate", a)
	}
	return resp, nil
}

// mobileAlg2Result is one replica's measurement slice for E4.
type mobileAlg2Result struct {
	mean, p95, maxRT sim.Time
	meals            int
	violations       int
}

// MobileAlg2 sweeps system size for Algorithm 2 under waypoint mobility.
func MobileAlg2(q Quality, replicas int) (*Plan, error) {
	ns := []int{16, 32, 64}
	horizon := sim.Time(10_000_000)
	if q == Quick {
		ns = []int{16, 32}
		horizon = 4_000_000
	}
	layouts := make(map[int][]graph.Point, len(ns))
	for i, n := range ns {
		pts, err := GeometricPoints(n, ConnectedRadius(n), 51+uint64(i))
		if err != nil {
			return nil, err
		}
		layouts[n] = pts
	}
	p := NewPlan()
	for _, n := range ns {
		n := n
		p.Add(fmt.Sprintf("n/%d", n), 52, replicas, func(ctx context.Context, seed uint64) (any, error) {
			radius := ConnectedRadius(n)
			r, err := Build(Spec{
				Seed: seed, Points: layouts[n], Radius: radius,
				NewProtocol: factoryFor(algA2, layouts[n], radius),
				Workload:    workload.Config{EatTime: 5_000, ThinkMax: 10_000, InitialStagger: 5_000},
			})
			if err != nil {
				return nil, err
			}
			if err := r.Start(); err != nil {
				return nil, err
			}
			var movers []core.NodeID
			for m := 0; m < n; m += 4 {
				movers = append(movers, core.NodeID(m))
			}
			manet.Waypoint{Speed: 0.3, PauseMin: 100_000, PauseMax: 400_000, Until: horizon * 3 / 4}.
				Attach(r.World, movers)
			if err := r.RunContext(ctx, horizon); err != nil {
				return nil, err
			}
			st := r.Recorder.Stats()
			return mobileAlg2Result{
				mean: st.Mean, p95: st.P95, maxRT: st.Max,
				meals:      r.TotalMeals(),
				violations: len(r.Checker.Violations()),
			}, nil
		})
	}
	p.Reduce = func(rs *ResultSet) (*Table, error) {
		t := &Table{
			ID:     "E4",
			Title:  "Algorithm 2 under waypoint mobility vs n",
			Header: []string{"n", "δ", "RT mean", "RT p95", "RT max", "meals", "violations"},
		}
		for _, n := range ns {
			key := fmt.Sprintf("n/%d", n)
			get := func(f func(mobileAlg2Result) sim.Time) Stat {
				return MSStat(timeSample(rs, key, func(v any) sim.Time { return f(v.(mobileAlg2Result)) }))
			}
			mealsS := rs.Sample(key, func(v any) float64 { return float64(v.(mobileAlg2Result).meals) })
			violations := rs.SumInt(key, func(v any) int { return v.(mobileAlg2Result).violations })
			t.AddRow(n, graph.UnitDisk(layouts[n], ConnectedRadius(n)).MaxDegree(),
				get(func(r mobileAlg2Result) sim.Time { return r.mean }),
				get(func(r mobileAlg2Result) sim.Time { return r.p95 }),
				get(func(r mobileAlg2Result) sim.Time { return r.maxRT }),
				NumStat(mealsS, 0), violations)
		}
		t.AddNote("Theorem 25: response stays bounded (O(n²)) and safety holds (violations must be 0) despite movement")
		return t, nil
	}
	return p, nil
}

// rtStats is a (mean, p95) response-time pair for E5's sweep cells.
type rtStats struct {
	mean, p95 sim.Time
}

// Alg1Scaling measures Algorithm 1's static response time against δ (at
// fixed n) and against n (at roughly fixed δ).
func Alg1Scaling(q Quality, replicas int) (*Plan, error) {
	horizon := sim.Time(8_000_000)
	radii := []float64{0.24, 0.3, 0.38}
	ns := []int{16, 32, 64}
	if q == Quick {
		horizon = 3_000_000
		radii = radii[:2]
		ns = ns[:2]
	}
	wl := workload.Config{EatTime: 5_000, ThinkMax: 10_000, InitialStagger: 5_000}
	algs := []algName{algA1Greedy, algA1Linial}
	deltaLayouts := make(map[float64][]graph.Point, len(radii))
	for _, radius := range radii {
		pts, err := GeometricPoints(36, radius, 61)
		if err != nil {
			return nil, err
		}
		deltaLayouts[radius] = pts
	}
	// Keep expected degree roughly constant: r ~ sqrt(c/n), floored at
	// the connectivity threshold.
	nRadius := func(n int) float64 {
		return math.Max(0.22*math.Sqrt(32.0/float64(n)), ConnectedRadius(n))
	}
	nLayouts := make(map[int][]graph.Point, len(ns))
	for _, n := range ns {
		pts, err := GeometricPoints(n, nRadius(n), 63)
		if err != nil {
			return nil, err
		}
		nLayouts[n] = pts
	}
	run := func(ctx context.Context, a algName, pts []graph.Point, radius float64, seed uint64) (any, error) {
		r, err := runStatic(ctx, a, pts, radius, seed, horizon, wl)
		if err != nil {
			return nil, err
		}
		st := r.Recorder.Stats()
		return rtStats{mean: st.Mean, p95: st.P95}, nil
	}
	p := NewPlan()
	for _, radius := range radii {
		radius := radius
		for _, a := range algs {
			a := a
			p.Add(fmt.Sprintf("delta/%v/%s", radius, a), 62, replicas, func(ctx context.Context, seed uint64) (any, error) {
				return run(ctx, a, deltaLayouts[radius], radius, seed)
			})
		}
	}
	for _, n := range ns {
		n := n
		for _, a := range algs {
			a := a
			p.Add(fmt.Sprintf("n/%d/%s", n, a), 64, replicas, func(ctx context.Context, seed uint64) (any, error) {
				return run(ctx, a, nLayouts[n], nRadius(n), seed)
			})
		}
	}
	p.Reduce = func(rs *ResultSet) (*Table, error) {
		t := &Table{
			ID:     "E5",
			Title:  "Algorithm 1 static response time vs δ (n=36) and vs n (δ≈5)",
			Header: []string{"sweep", "n", "δ", "greedy mean", "greedy p95", "linial mean", "linial p95"},
		}
		addSweep := func(label string, n int, delta int, keyOf func(a algName) string) {
			row := []any{label, n, delta}
			for _, a := range algs {
				key := keyOf(a)
				row = append(row,
					MSStat(timeSample(rs, key, func(v any) sim.Time { return v.(rtStats).mean })),
					MSStat(timeSample(rs, key, func(v any) sim.Time { return v.(rtStats).p95 })))
			}
			t.AddRow(row...)
		}
		for _, radius := range radii {
			radius := radius
			addSweep("δ", 36, graph.UnitDisk(deltaLayouts[radius], radius).MaxDegree(),
				func(a algName) string { return fmt.Sprintf("delta/%v/%s", radius, a) })
		}
		for _, n := range ns {
			n := n
			addSweep("n", n, graph.UnitDisk(nLayouts[n], nRadius(n)).MaxDegree(),
				func(a algName) string { return fmt.Sprintf("n/%d/%s", n, a) })
		}
		t.AddNote("Theorems 17/23: static response is polynomial in δ with only weak n dependence (colours collapse to [0,δ] after first meals)")
		return t, nil
	}
	return p, nil
}

// ColoringScaling compares the two recolouring procedures when all nodes
// start concurrently: rounds to terminate and palette size (Lemma 15 vs
// Lemma 21). Pure computation — no network needed.
func ColoringScaling(q Quality, replicas int) (*Plan, error) {
	ns := []int{16, 64, 256}
	if q == Quick {
		ns = []int{16, 64}
	}
	// Very large bounded-degree systems are where the Linial variant's
	// O(log* n) rounds shine. The greedy columns stay symbolic there: a
	// flood is cheap to run at table sizes but Θ(n·diameter·m/64) word
	// operations at n = 2²⁰ — which is Lemma 15's point, not a table cell.
	bigNs := []int{1 << 12, 1 << 16, 1 << 20}
	deltas := []int{2, 4}
	p := NewPlan()
	for _, n := range ns {
		n := n
		p.AddOne(fmt.Sprintf("ring/%d", n), func(context.Context) (any, error) {
			return coloringRow("ring", graph.Ring(n))
		})
		p.AddOne(fmt.Sprintf("grid/%d", n), func(context.Context) (any, error) {
			side := 1
			for side*side < n {
				side++
			}
			return coloringRow("grid", graph.Grid(side, side))
		})
		p.AddOne(fmt.Sprintf("geo/%d", n), func(context.Context) (any, error) {
			// The layout stream is keyed by n, not by the job seed, so
			// the geometric rows ignore -seed and replicas; it stays
			// that way because the committed rows depend on it.
			rng := sim.NewRand(uint64(n))
			g, _, err := graph.ConnectedGeometric(n, ConnectedRadius(n), rng)
			if err != nil {
				return nil, err
			}
			return coloringRow("geometric", g)
		})
	}
	for _, n := range bigNs {
		n := n
		for _, delta := range deltas {
			delta := delta
			p.AddOne(fmt.Sprintf("bounded/%d/%d", n, delta), func(context.Context) (any, error) {
				sched, err := coloring.Schedule(n, delta)
				if err != nil {
					return nil, err
				}
				final, err := coloring.FinalPalette(n, delta)
				if err != nil {
					return nil, err
				}
				return []any{fmt.Sprintf("bounded-degree δ=%d", delta), n, delta, "-", graph.LogStar(n),
					"≈diameter", "≤δ+1", len(sched), final}, nil
			})
		}
	}
	p.Reduce = func(rs *ResultSet) (*Table, error) {
		t := &Table{
			ID:     "E6",
			Title:  "Recolouring with all nodes concurrent: rounds and palette size",
			Header: []string{"graph", "n", "δ", "diam", "log*n", "greedy rounds", "greedy palette", "linial rounds", "linial palette"},
		}
		addFirst := func(key string) error {
			v, err := rs.First(key)
			if err != nil {
				return err
			}
			row, ok := v.([]any)
			if !ok {
				return fmt.Errorf("harness: %s produced %T, want []any", key, v)
			}
			t.AddRow(row...)
			return nil
		}
		for _, n := range ns {
			for _, kind := range []string{"ring", "grid", "geo"} {
				if err := addFirst(fmt.Sprintf("%s/%d", kind, n)); err != nil {
					return nil, err
				}
			}
		}
		for _, n := range bigNs {
			for _, delta := range deltas {
				if err := addFirst(fmt.Sprintf("bounded/%d/%d", n, delta)); err != nil {
					return nil, err
				}
			}
		}
		t.AddNote("Lemma 15: greedy needs Θ(diameter)=O(n) rounds, palette ≤ δ+1; Lemma 21: Linial needs O(log* n) rounds, palette O(δ²)")
		t.AddNote("for dense geometric rows δ² approaches n, so the Linial reduction has little to do — its regime is large sparse systems (bottom rows)")
		return t, nil
	}
	return p, nil
}

func coloringRow(name string, g *graph.Graph) ([]any, error) {
	delta := max(g.MaxDegree(), 1)
	gRounds, gPalette := greedyFloodRounds(g)
	sched, err := coloring.Schedule(g.N(), delta)
	if err != nil {
		return nil, err
	}
	final, err := coloring.FinalPalette(g.N(), delta)
	if err != nil {
		return nil, err
	}
	return []any{name, g.N(), delta, g.Diameter(), graph.LogStar(g.N()), gRounds, gPalette, len(sched), final}, nil
}

// greedyFloodRounds is coloring.FloodRounds on g: Algorithm 4 with every
// node starting concurrently in synchronous rounds, as the round count and
// the palette size of the final greedy colouring.
func greedyFloodRounds(g *graph.Graph) (rounds, palette int) {
	adj := make([][]int, g.N())
	for v := range adj {
		adj[v] = g.Neighbors(v)
	}
	return coloring.FloodRounds(adj)
}

// figure6Result is one replica's phase outcomes for E8.
type figure6Result struct {
	m1, m2, m3 int // meals after the crash phase
	n1, n2, n3 int // meals after p3 moved away
}

// Figure6 runs the §5.1 scenario and reports the phase outcomes.
func Figure6(q Quality, replicas int) (*Plan, error) {
	p := NewPlan()
	p.Add("scenario", 71, replicas, func(ctx context.Context, seed uint64) (any, error) {
		colors := map[core.NodeID]int{0: 3, 1: 2, 3: 1, 2: 4}
		pts := []graph.Point{{X: 0}, {X: 0.1}, {X: 0.3}, {X: 0.2}}
		r, err := Build(Spec{
			Seed:   seed,
			Points: pts,
			Radius: 0.11,
			NewProtocol: func(id core.NodeID) core.Protocol {
				return lme1.New(lme1.Config{
					Variant:      lme1.VariantGreedy,
					InitialColor: func(id core.NodeID) int { return colors[id] },
				})
			},
			Workload: workload.Config{
				EatTime: 5_000, ThinkMin: 5_000, ThinkMax: 5_000,
				Participants: []core.NodeID{0, 1, 3},
			},
		})
		if err != nil {
			return nil, err
		}
		r.World.CrashAt(2, 0) // p4 dies holding the p3–p4 fork
		const phase1 = sim.Time(3_000_000)
		if err := r.RunContext(ctx, phase1); err != nil {
			return nil, err
		}
		out := figure6Result{
			m1: r.Recorder.EatCount(0), m2: r.Recorder.EatCount(1), m3: r.Recorder.EatCount(3),
		}
		// p3 moves away; p2 recovers through the return path.
		r.World.JumpAt(3, graph.Point{X: 0.9, Y: 0.9}, 20_000, phase1+100_000)
		if err := r.RunContext(ctx, 3_000_000); err != nil {
			return nil, err
		}
		out.n1, out.n2, out.n3 = r.Recorder.EatCount(0), r.Recorder.EatCount(1), r.Recorder.EatCount(3)
		return out, nil
	})
	p.Reduce = func(rs *ResultSet) (*Table, error) {
		t := &Table{
			ID:     "E8",
			Title:  "Figure 6 scenario: p1—p2—p3—p4 (colours 3,2,1,4), p4 crashed holding p3's fork",
			Header: []string{"phase", "p1 meals", "p2 meals", "p3 meals"},
		}
		count := func(f func(figure6Result) int) fleet.Sample {
			return rs.Sample("scenario", func(v any) float64 { return float64(f(v.(figure6Result))) })
		}
		t.AddRow("after crash (3s)",
			NumStat(count(func(r figure6Result) int { return r.m1 }), 0),
			NumStat(count(func(r figure6Result) int { return r.m2 }), 0),
			NumStat(count(func(r figure6Result) int { return r.m3 }), 0))
		t.AddRow("after p3 moves (6s)",
			NumStat(count(func(r figure6Result) int { return r.n1 }), 0),
			NumStat(count(func(r figure6Result) int { return r.n2 }), 0),
			NumStat(count(func(r figure6Result) int { return r.n3 }), 0))
		t.AddNote("expected shape: phase 1 blocks p2 and p3 (within failure locality), p1 progresses; phase 2 frees p2 via the doorway return path and p3 eats alone")
		if q == Full {
			deviants := 0
			for _, v := range rs.Values("scenario") {
				r := v.(figure6Result)
				if r.m2 != 0 || r.m3 != 0 || r.n2 == 0 || r.n3 == 0 {
					deviants++
				}
			}
			if deviants > 0 {
				t.AddNote("WARNING: %d of %d replicas deviate from the expected shape", deviants, len(rs.Values("scenario")))
			}
		}
		return t, nil
	}
	return p, nil
}

// SafetySweep runs every algorithm under static, mobile and crashy
// conditions and reports violations (which must all be zero).
func SafetySweep(q Quality, replicas int) (*Plan, error) {
	n, horizon := 20, sim.Time(4_000_000)
	seeds := []uint64{81, 82, 83}
	if q == Quick {
		seeds = seeds[:1]
		horizon = 2_000_000
	}
	radius := ConnectedRadius(n)
	wl := workload.Config{EatTime: 4_000, ThinkMax: 6_000}
	algs := []algName{algCM, algCS, algA1Greedy, algA1Linial, algA1Reduce, algA2, algA2NoNtf}
	p := NewPlan()
	for _, a := range algs {
		a := a
		for si, seed := range seeds {
			p.Add(fmt.Sprintf("static/%s/%d", a, si), seed, replicas, func(ctx context.Context, seed uint64) (any, error) {
				pts, err := GeometricPoints(n, radius, seed)
				if err != nil {
					return nil, err
				}
				r, err := runStatic(ctx, a, pts, radius, seed, horizon, wl)
				if err != nil {
					return nil, err
				}
				return len(r.Checker.Violations()), nil
			})
			if a == algCS {
				continue // static-only baseline
			}
			p.Add(fmt.Sprintf("mobile/%s/%d", a, si), seed, replicas, func(ctx context.Context, seed uint64) (any, error) {
				pts, err := GeometricPoints(n, radius, seed)
				if err != nil {
					return nil, err
				}
				r, err := Build(Spec{
					Seed: seed, Points: pts, Radius: radius,
					NewProtocol: factoryFor(a, pts, radius),
					Workload:    wl,
				})
				if err != nil {
					return nil, err
				}
				if err := r.Start(); err != nil {
					return nil, err
				}
				manet.Waypoint{Speed: 0.4, PauseMin: 50_000, PauseMax: 200_000, Until: horizon * 2 / 3}.
					Attach(r.World, []core.NodeID{1, 6, 11, 16})
				if err := r.RunContext(ctx, horizon); err != nil {
					return nil, err
				}
				return len(r.Checker.Violations()), nil
			})
			p.Add(fmt.Sprintf("crash/%s/%d", a, si), seed, replicas, func(ctx context.Context, seed uint64) (any, error) {
				pts, err := GeometricPoints(n, radius, seed)
				if err != nil {
					return nil, err
				}
				r, err := Build(Spec{
					Seed: seed + 100, Points: pts, Radius: radius,
					NewProtocol: factoryFor(a, pts, radius),
					Workload:    wl,
				})
				if err != nil {
					return nil, err
				}
				if err := r.Start(); err != nil {
					return nil, err
				}
				r.World.CrashAt(3, horizon/3)
				r.World.CrashAt(12, horizon/2)
				manet.Waypoint{Speed: 0.4, PauseMin: 50_000, PauseMax: 200_000, Until: horizon * 2 / 3}.
					Attach(r.World, []core.NodeID{1, 6})
				if err := r.RunContext(ctx, horizon); err != nil {
					return nil, err
				}
				return len(r.Checker.Violations()), nil
			})
		}
	}
	p.Reduce = func(rs *ResultSet) (*Table, error) {
		t := &Table{
			ID:     "E9",
			Title:  "Safety sweep: mutual exclusion violations (must be 0)",
			Header: []string{"algorithm", "static viol", "mobile viol", "crashy viol", "runs"},
		}
		for _, a := range algs {
			staticV, mobileV, crashV, runs := 0, 0, 0, 0
			for si := range seeds {
				for kind, into := range map[string]*int{"static": &staticV, "mobile": &mobileV, "crash": &crashV} {
					key := fmt.Sprintf("%s/%s/%d", kind, a, si)
					*into += rs.SumInt(key, func(v any) int { return v.(int) })
					runs += len(rs.Values(key))
				}
			}
			t.AddRow(string(a), staticV, mobileV, crashV, runs)
		}
		return t, nil
	}
	return p, nil
}

// msgResult is one replica's traffic measurement for E10.
type msgResult struct {
	msgs   uint64
	meals  int
	byType map[string]uint64
}

// MessageComplexity measures protocol messages per completed critical
// section — the performance measure the paper's Discussion chapter leaves
// for future work. Doorway traffic makes Algorithm 1 heavier per meal
// than the doorway-free Algorithm 2; mobility adds recolouring traffic.
func MessageComplexity(q Quality, replicas int) (*Plan, error) {
	n, horizon := 32, sim.Time(6_000_000)
	if q == Quick {
		n, horizon = 16, 2_000_000
	}
	radius := ConnectedRadius(n)
	pts, err := GeometricPoints(n, radius, 91)
	if err != nil {
		return nil, err
	}
	wl := workload.Config{EatTime: 5_000, ThinkMax: 10_000, InitialStagger: 5_000}
	algs := []algName{algCM, algCS, algA1Greedy, algA1Linial, algA2}
	p := NewPlan()
	for _, a := range algs {
		a := a
		p.Add("static/"+string(a), 92, replicas, func(ctx context.Context, seed uint64) (any, error) {
			r, err := Build(Spec{
				Seed: seed, Points: pts, Radius: radius,
				NewProtocol: factoryFor(a, pts, radius),
				Workload:    wl,
			})
			if err != nil {
				return nil, err
			}
			// Only the static breakdown column reads per-type traffic.
			reg := metrics.NewRegistry()
			metrics.Instrument(r.World.Bus(), reg, r.World.TypeNamer())
			if err := r.RunContext(ctx, horizon); err != nil {
				return nil, fmt.Errorf("%s: %w", a, err)
			}
			return msgResult{
				msgs:   r.World.MessagesSent(),
				meals:  r.TotalMeals(),
				byType: reg.CountersWithPrefix(metrics.PrefixSent),
			}, nil
		})
		if a != algCS {
			p.Add("mobile/"+string(a), 93, replicas, func(ctx context.Context, seed uint64) (any, error) {
				r, err := Build(Spec{
					Seed: seed, Points: pts, Radius: radius,
					NewProtocol: factoryFor(a, pts, radius),
					Workload:    wl,
				})
				if err != nil {
					return nil, err
				}
				if err := r.Start(); err != nil {
					return nil, err
				}
				var movers []core.NodeID
				for m := 1; m < n; m += max(n/4, 1) {
					movers = append(movers, core.NodeID(m))
				}
				manet.Waypoint{Speed: 0.3, PauseMin: 100_000, PauseMax: 400_000, Until: horizon * 3 / 4}.
					Attach(r.World, movers)
				if err := r.RunContext(ctx, horizon); err != nil {
					return nil, err
				}
				return msgResult{msgs: r.World.MessagesSent(), meals: r.TotalMeals()}, nil
			})
		}
	}
	p.Reduce = func(rs *ResultSet) (*Table, error) {
		t := &Table{
			ID:    "E10",
			Title: fmt.Sprintf("Messages per critical section (n=%d, δ=%d)", n, graph.UnitDisk(pts, radius).MaxDegree()),
			Header: []string{"algorithm", "static msg/meal", "static meals",
				"mobile msg/meal", "mobile meals", "static breakdown"},
		}
		cellsFor := func(key string) (perMealCell any, mealsCell any) {
			vals := rs.Values(key)
			var ratioS, mealsS fleet.Sample
			for _, v := range vals {
				m := v.(msgResult)
				mealsS.Add(float64(m.meals))
				if m.meals > 0 {
					ratioS.Add(float64(m.msgs) / float64(m.meals))
				}
			}
			if ratioS.N() < len(vals) {
				return "∞", NumStat(mealsS, 0) // some replica completed no meal
			}
			return NumStat(ratioS, 1), NumStat(mealsS, 0)
		}
		for _, a := range algs {
			perMealCell, mealsCell := cellsFor("static/" + string(a))
			// Breakdown percentages merge every replica's traffic.
			merged := map[string]uint64{}
			total := uint64(0)
			for _, v := range rs.Values("static/" + string(a)) {
				m := v.(msgResult)
				total += m.msgs
				for k, c := range m.byType {
					merged[k] += c
				}
			}
			mobilePerMeal, mobileMeals := any("n/a"), any("n/a")
			if a != algCS {
				mobilePerMeal, mobileMeals = cellsFor("mobile/" + string(a))
			}
			t.AddRow(string(a), perMealCell, mealsCell, mobilePerMeal, mobileMeals, breakdown(merged, total))
		}
		t.AddNote("msg/meal = protocol messages handed to the transport divided by completed critical sections")
		t.AddNote("Algorithm 1 pays for doorway cross/exit broadcasts and (under mobility) recolouring rounds; Algorithm 2's notification adds O(δ) per hunger but needs no doorways")
		return t, nil
	}
	return p, nil
}

// breakdown renders the top message types by share of total traffic.
func breakdown(byType map[string]uint64, total uint64) string {
	if total == 0 {
		return ""
	}
	type kv struct {
		name  string
		count uint64
	}
	var all []kv
	for k, v := range byType {
		all = append(all, kv{name: k, count: v})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].count != all[j].count {
			return all[i].count > all[j].count
		}
		return all[i].name < all[j].name
	})
	var parts []string
	for i, e := range all {
		if i >= 3 {
			break
		}
		parts = append(parts, fmt.Sprintf("%s %.0f%%", e.name, 100*float64(e.count)/float64(total)))
	}
	return strings.Join(parts, " ")
}

// FIFOAblation probes the Ch. 7 open question "is the FIFO link
// assumption necessary?" empirically: the same contended runs with FIFO
// delivery disabled. The algorithms' proofs lean on FIFO in several
// places (doorway interleaving, colour-before-request ordering, the
// request-after-fork invariant); this experiment reports what actually
// breaks — safety violations and starvation counts — across seeds.
func FIFOAblation(q Quality, replicas int) (*Plan, error) {
	n, horizon := 20, sim.Time(5_000_000)
	seeds := []uint64{101, 102, 103, 104}
	if q == Quick {
		seeds = seeds[:2]
		horizon = 2_000_000
	}
	radius := ConnectedRadius(n)
	algs := []algName{algCM, algA1Greedy, algA1Linial, algA2}
	type ablationResult struct{ viol, starved int }
	p := NewPlan()
	for _, a := range algs {
		a := a
		for si, seed := range seeds {
			for _, nonFIFO := range []bool{false, true} {
				nonFIFO := nonFIFO
				kind := "fifo"
				if nonFIFO {
					kind = "loose"
				}
				p.Add(fmt.Sprintf("%s/%s/%d", kind, a, si), seed, replicas, func(ctx context.Context, seed uint64) (any, error) {
					pts, err := GeometricPoints(n, radius, seed)
					if err != nil {
						return nil, err
					}
					r, err := Build(Spec{
						Seed: seed, Points: pts, Radius: radius,
						NewProtocol: factoryFor(a, pts, radius),
						Workload:    workload.Config{EatTime: 4_000, ThinkMax: 6_000},
						NonFIFO:     nonFIFO,
					})
					if err != nil {
						return nil, err
					}
					// Deliberately not using RunContext's safety check:
					// violations are the measurement here, not an error.
					if err := r.Start(); err != nil {
						return nil, err
					}
					if _, err := r.runUntil(horizon, uint64(n)*uint64(horizon/50+1_000_000)); err != nil {
						return nil, err
					}
					return ablationResult{
						viol:    len(r.Checker.Violations()),
						starved: len(r.Prober.Blocked(horizon, horizon/3)),
					}, nil
				})
			}
		}
	}
	p.Reduce = func(rs *ResultSet) (*Table, error) {
		t := &Table{
			ID:     "E12",
			Title:  fmt.Sprintf("Links without FIFO order (n=%d, %d seeds): what breaks", n, len(seeds)),
			Header: []string{"algorithm", "FIFO viol", "FIFO starved", "non-FIFO viol", "non-FIFO starved"},
		}
		for _, a := range algs {
			var fifoV, fifoS, looseV, looseS int
			for si := range seeds {
				fifoV += rs.SumInt(fmt.Sprintf("fifo/%s/%d", a, si), func(v any) int { return v.(ablationResult).viol })
				fifoS += rs.SumInt(fmt.Sprintf("fifo/%s/%d", a, si), func(v any) int { return v.(ablationResult).starved })
				looseV += rs.SumInt(fmt.Sprintf("loose/%s/%d", a, si), func(v any) int { return v.(ablationResult).viol })
				looseS += rs.SumInt(fmt.Sprintf("loose/%s/%d", a, si), func(v any) int { return v.(ablationResult).starved })
			}
			t.AddRow(string(a), fifoV, fifoS, looseV, looseS)
		}
		t.AddNote("starved = nodes continuously hungry for the final third of the run; the FIFO columns are the control and must be 0/0")
		t.AddNote("Ch. 7 leaves relaxing the FIFO assumption to self-stabilising variants; nonzero non-FIFO cells measure how much the published algorithms rely on it")
		return t, nil
	}
	return p, nil
}

// LocalityDividend compares aggregate critical-section throughput of a
// LOCAL mutual exclusion algorithm (Alg 2) against a GLOBAL one
// (Raymond's tree token) on growing grids — quantifying the paper's
// introductory argument for the local problem: exclusion is only needed
// among radio neighbours, so distant nodes should proceed concurrently.
func LocalityDividend(q Quality, replicas int) (*Plan, error) {
	sides := []int{3, 4, 6, 8}
	horizon := sim.Time(5_000_000)
	if q == Quick {
		sides = []int{3, 4}
		horizon = 2_000_000
	}
	const eat = sim.Time(4_000)
	p := NewPlan()
	for _, side := range sides {
		side := side
		for _, a := range []algName{algA2, algGlobal} {
			a := a
			kind := "local"
			if a == algGlobal {
				kind = "global"
			}
			p.Add(fmt.Sprintf("%s/%d", kind, side), 71, replicas, func(ctx context.Context, seed uint64) (any, error) {
				pts := GridPoints(side, side, 0.1)
				r, err := runStatic(ctx, a, pts, 0.11, seed, horizon, workload.Config{EatTime: eat})
				if err != nil {
					return nil, err
				}
				return r.TotalMeals(), nil
			})
		}
	}
	p.Reduce = func(rs *ResultSet) (*Table, error) {
		t := &Table{
			ID:     "E11",
			Title:  "Aggregate throughput on a grid, saturated: local (alg2) vs global (Raymond token)",
			Header: []string{"grid", "n", "local meals", "global meals", "dividend", "serial ceiling"},
		}
		for _, side := range sides {
			local := rs.Values(fmt.Sprintf("local/%d", side))
			global := rs.Values(fmt.Sprintf("global/%d", side))
			var localS, globalS, divS fleet.Sample
			for i := range local {
				lm := float64(local[i].(int))
				localS.Add(lm)
				if i < len(global) {
					gm := float64(global[i].(int))
					globalS.Add(gm)
					if gm > 0 {
						divS.Add(lm / gm)
					}
				}
			}
			dividend := any("n/a")
			if divS.N() == localS.N() && divS.N() > 0 {
				text := fmt.Sprintf("%.1fx", divS.Mean())
				if divS.N() > 1 {
					text += fmt.Sprintf("±%.1f", divS.StdErr())
				}
				dividend = Stat{Text: text, Sample: divS}
			}
			t.AddRow(fmt.Sprintf("%dx%d", side, side), side*side,
				NumStat(localS, 0), NumStat(globalS, 0), dividend, int(horizon/eat))
		}
		t.AddNote("the global token serialises the whole system (meals ≤ horizon/τ and below, due to token travel); local mutual exclusion scales with the grid's independent sets")
		return t, nil
	}
	return p, nil
}

// DoorwayLatency measures the double-doorway traversal latency against
// the number of contenders via a dedicated probe protocol (no forks), the
// quantity Lemmas 1–2 bound by O(δT).
func DoorwayLatency(q Quality, replicas int) (*Plan, error) {
	sizes := []int{2, 4, 8, 16}
	if q == Quick {
		sizes = []int{2, 4, 8}
	}
	p := NewPlan()
	for _, n := range sizes {
		n := n
		p.Add(fmt.Sprintf("n/%d", n), uint64(n), replicas, func(ctx context.Context, seed uint64) (any, error) {
			return doorwayProbe(n, sim.Time(20_000) /* hold */, sim.Time(4_000_000), seed)
		})
	}
	p.Reduce = func(rs *ResultSet) (*Table, error) {
		t := &Table{
			ID:     "E7",
			Title:  "Double doorway traversal latency on a clique of contenders",
			Header: []string{"contenders (δ+1)", "entries", "mean latency", "p95 latency", "max latency"},
		}
		for _, n := range sizes {
			key := fmt.Sprintf("n/%d", n)
			countS := rs.Sample(key, func(v any) float64 { return float64(v.(metrics.Stats).Count) })
			t.AddRow(n, NumStat(countS, 0),
				MSStat(timeSample(rs, key, func(v any) sim.Time { return v.(metrics.Stats).Mean })),
				MSStat(timeSample(rs, key, func(v any) sim.Time { return v.(metrics.Stats).P95 })),
				MSStat(timeSample(rs, key, func(v any) sim.Time { return v.(metrics.Stats).Max })))
		}
		t.AddNote("Lemma 1: traversal is O(δT) where T is the time spent behind the doorway (hold=20ms here)")
		return t, nil
	}
	return p, nil
}

// ConnectedRadius returns a radio range slightly above the connectivity
// threshold of a random geometric graph on n nodes (sqrt(ln n/(π n)) plus
// margin), giving expected degree ln n + 2 — the standard "sparse but
// connected" operating point of the experiments.
func ConnectedRadius(n int) float64 {
	return math.Sqrt((math.Log(float64(n)) + 2) / (math.Pi * float64(n)))
}
