package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"time"

	"lme/internal/core"
	"lme/internal/graph"
	"lme/internal/harness"
	"lme/internal/lme1"
	"lme/internal/lme2"
	"lme/internal/manet"
	"lme/internal/metrics"
	"lme/internal/sim"
	"lme/internal/workload"
)

// simSpec pins one simulator workload. A pass repeats whole runs of the
// same generated inputs until its time budget is spent and reports medians
// over their RunFor slices: the run is the fixed unit of work, so the
// deterministic metrics (rt_p95_ms, msgs_per_cs, the digest) are exact per
// seed, and every repeat must reproduce the first run's digest.
type simSpec struct {
	name string
	n    int
	// mobile selects the geometric layout with waypoint movers and the
	// full (observed) harness; otherwise the lattice with one crash and
	// the Lean harness.
	mobile bool
	// horizon is the virtual span of one run; the first warm of it is
	// excluded from the timed part.
	horizon, warm sim.Time
}

const (
	simRadiusMobile = 0.04
	simMovers       = 200
	simMoverSpeed   = 0.3
	// simSlices is how many RunFor slices the measured part of a run is
	// cut into; each is one span (and one operation id) of the traced pass.
	simSlices = 8
	// simLocality is how far from a crashed node, in hops, starvation is
	// the algorithm's specified behaviour rather than a failed operation
	// (greedy Algorithm 1 measures 3 in E1/E2).
	simLocality = 4
	// simSetupProbes is how many extra Build + Start cycles an untraced
	// pass times for setup_s, next to those of its few runs.
	simSetupProbes = 16
	// checkHorizon is the short run of the workers=1 vs GOMAXPROCS
	// determinism check.
	checkHorizon sim.Time = 150_000
)

var simSpecs = map[string]simSpec{
	"sim_static_10k": {name: "sim_static_10k", n: 10_000, horizon: 1_000_000, warm: 200_000},
	"sim_mobile_2k":  {name: "sim_mobile_2k", n: 2_000, mobile: true, horizon: 1_000_000, warm: 200_000},
}

// simInputs is everything a run is built from, generated from the seed in
// this file; the program under test sees only these values.
type simInputs struct {
	points []graph.Point
	radius float64
	victim core.NodeID // -1: no crash
	movers []core.NodeID
}

func genSimInputs(s simSpec, seed uint64) simInputs {
	rng := rand.New(rand.NewPCG(seed, 0x51b0_1a7e))
	if !s.mobile {
		side := 1
		for side*side < s.n {
			side++
		}
		spacing := 1.0 / float64(side)
		pts := make([]graph.Point, s.n)
		for i := range pts {
			pts[i] = graph.Point{X: (float64(i%side) + 0.5) * spacing, Y: (float64(i/side) + 0.5) * spacing}
		}
		// The victim sits in the central third, away from the border.
		third := side / 3
		row, col := third+rng.IntN(third), third+rng.IntN(third)
		return simInputs{points: pts, radius: 1.45 * spacing, victim: core.NodeID(row*side + col)}
	}
	in := simInputs{radius: simRadiusMobile, victim: -1}
	// Uniform points, redrawn until the unit-disk graph is connected.
	for try := 0; try < 64; try++ {
		in.points = make([]graph.Point, s.n)
		for i := range in.points {
			in.points[i] = graph.Point{X: rng.Float64(), Y: rng.Float64()}
		}
		if !slices.Contains(graph.UnitDisk(in.points, in.radius).Distances(0), -1) {
			break
		}
	}
	for _, id := range rng.Perm(s.n)[:simMovers] {
		in.movers = append(in.movers, core.NodeID(id))
	}
	return in
}

// simRun is one built, started and executed run.
type simRun struct {
	setupS, wallS, cpuS float64
	// perSlice has the RunFor slices of the timed part: the samples the
	// timing metrics take their medians over.
	perSlice          []simSlice
	events, meals     uint64 // of the timed part
	heapPerNode       float64
	digest            string
	rt                []int64 // response times of static nodes, µs, sorted
	msgsPerCS         float64
	attempted, failed int64
	violations        int
	starved           int
	run               *harness.Run
	linkEvents        uint64
	handlerNs         int64
	handlerCalls      uint64
	rtd               rtDelta
}

// simSlice is the cost of one RunFor slice of the timed part of a run.
type simSlice struct {
	events      uint64
	wallS, cpuS float64
}

// simOpts selects how a run is built.
type simOpts struct {
	workers int  // shard workers (0 = GOMAXPROCS)
	lean    bool // force the Lean harness (the observed-vs-lean comparison)
	horizon sim.Time
	warm    sim.Time
	t       *tracer // non-nil: decorate and collect engine telemetry
	heap    bool    // measure heap_bytes_per_node (costs two GCs)
}

// buildSim builds a run from the inputs and starts it: the set-up.
func buildSim(s simSpec, in simInputs, seed uint64, o simOpts) (*simRun, error) {
	out := &simRun{}
	begin := time.Now()
	spec := harness.Spec{
		Seed:   seed,
		Points: in.points,
		Radius: in.radius,
		NewProtocol: func(id core.NodeID) core.Protocol {
			// Greedy Algorithm 1 on the static lattice, Algorithm 2 under
			// mobility: both variants of Algorithm 1 lose liveness there on
			// some seeds (README.md, "Findings"), and a workload must not
			// fail by design.
			var p core.Protocol
			if s.mobile {
				p = lme2.New()
			} else {
				p = lme1.New(lme1.Config{Variant: lme1.VariantGreedy})
			}
			if o.t != nil {
				p = o.t.wrapProtocol(id, p)
			}
			return p
		},
		Workload: workload.DefaultConfig(),
		// Exact response-time samples: the recorder's sketch rounds a
		// quantile to a 2% bucket, which reads the same on every seed.
		RetainSamples: true,
		Tiles:         manet.AutoTiles(s.n),
		ShardWorkers:  o.workers,
		Telemetry:     o.t != nil,
	}
	if s.mobile && !o.lean {
		spec.TraceRing, spec.SpanFold = 1024, true
	} else {
		spec.Lean = true
	}
	r, err := harness.Build(spec)
	if err != nil {
		return nil, err
	}
	if in.victim >= 0 {
		r.World.CrashAt(in.victim, o.horizon/3)
	}
	if err := r.Start(); err != nil {
		return nil, err
	}
	if len(in.movers) > 0 {
		manet.Waypoint{Speed: simMoverSpeed, PauseMin: 20_000, PauseMax: 200_000}.Attach(r.World, in.movers)
	}
	out.setupS = time.Since(begin).Seconds()
	out.run = r
	return out, nil
}

// execSim builds and starts a run, runs the warm-up and then the timed
// part, and collects the deterministic results.
func execSim(s simSpec, in simInputs, seed uint64, o simOpts) (*simRun, error) {
	var heapBase uint64
	if o.heap {
		heapBase = heapAfterGC()
	}
	out, err := buildSim(s, in, seed, o)
	if err != nil {
		return nil, err
	}
	r, crashAt := out.run, o.horizon/3
	if err := r.RunFor(o.warm); err != nil {
		return nil, err
	}
	events0, meals0 := r.World.Processed(), r.TotalMeals()
	var probe *rtProbe
	var unit uint64
	if o.t != nil {
		o.t.measuring.Store(true)
		probe = startRuntimeProbe()
		unit = o.t.newID()
	}
	slice := (o.horizon - o.warm) / simSlices
	t0, cpu0 := now(), cpuSeconds()
	for i := 0; i < simSlices; i++ {
		d := slice
		if i == simSlices-1 {
			d = o.horizon - r.World.Now()
		}
		var sid uint64
		if o.t != nil {
			// The slice is the operation: sampled nodes' handler spans
			// hang under it.
			sid = o.t.newID()
			for id := 0; id < s.n; id += sampleEvery {
				nt := &o.t.nodes[id]
				nt.root.Store(sid)
				nt.op.Store(uint64(i)<<1 | 1)
			}
		}
		start, cpuStart, evStart := now(), cpuSeconds(), r.World.Processed()
		if err := r.RunFor(d); err != nil {
			return nil, err
		}
		out.perSlice = append(out.perSlice, simSlice{
			events: r.World.Processed() - evStart,
			wallS:  float64(now()-start) / 1e9,
			cpuS:   cpuSeconds() - cpuStart,
		})
		if o.t != nil {
			o.t.addSpan(Span{ID: sid, Parent: unit, Name: "manet.RunFor", Node: -1, Op: uint64(i), Start: start, End: now()})
		}
	}
	t1, cpu1 := now(), cpuSeconds()
	if o.t != nil {
		o.t.measuring.Store(false)
		out.rtd = probe.stop()
		o.t.addSpan(Span{ID: unit, Name: "run.measured", Node: -1, Start: t0, End: t1})
		for id := 0; id < s.n; id += sampleEvery {
			o.t.nodes[id].op.Store(0)
		}
	}
	out.wallS, out.cpuS = float64(t1-t0)/1e9, cpu1-cpu0
	out.events = r.World.Processed() - events0
	out.meals = uint64(r.TotalMeals() - meals0)
	if o.heap {
		// The world is finished but still referenced: what it retains.
		if heap := heapAfterGC(); heap > heapBase {
			out.heapPerNode = float64(heap-heapBase) / float64(s.n)
		}
		runtime.KeepAlive(r)
	}

	// Deterministic results and the starvation census.
	w := r.World
	for _, d := range r.Recorder.Samples() {
		out.rt = append(out.rt, int64(d))
	}
	slices.Sort(out.rt)
	out.violations = len(r.Checker.Violations())
	out.msgsPerCS = r.MessagesPerMeal()
	// A node is starved if it is hungry at the end and has not eaten in
	// the final two thirds of the post-crash span (the Prober rule of E2
	// and lmebench -scale) or, with no crash, since the warm-up ended.
	cutoff := o.warm
	if in.victim >= 0 {
		cutoff = crashAt + (o.horizon-crashAt)/3
	}
	// Movers are left out: Definition 1 speaks of static nodes, and a node
	// in motion for most of the run is not expected to eat.
	starved := slices.DeleteFunc(r.Prober.StarvedSince(cutoff), func(id core.NodeID) bool {
		return slices.Contains(in.movers, id)
	})
	slices.Sort(starved)
	out.starved = len(starved)
	if in.victim >= 0 {
		// Starvation within the failure locality of the crash is what the
		// algorithm specifies; beyond it, it is a failed operation.
		dist := w.CommGraph().Distances(int(in.victim))
		for _, id := range starved {
			if id != in.victim && (dist[id] < 0 || dist[id] > simLocality) {
				out.failed++
			}
		}
	} else {
		// Under mobility a static node can wait most of a 1 s run and still
		// be served later, so a wait is no failure here: the census above
		// is reported, and the gate is the live workloads' one, that every
		// static node was served.
		for id := 0; id < s.n; id++ {
			if r.Recorder.EatCount(core.NodeID(id)) == 0 && !slices.Contains(in.movers, core.NodeID(id)) {
				out.failed++
			}
		}
	}
	out.failed += int64(out.violations)
	out.attempted = int64(len(out.rt)) + int64(len(r.Prober.Blocked(w.Now(), 0)))

	h := sha256.New()
	fmt.Fprintf(h, "events=%d|meals=%d|msgs=%d|rt=%d/%d/%d/%d/%d|viol=%d|starved=%v",
		w.Processed(), r.TotalMeals(), w.MessagesSent(), len(out.rt),
		percentile(out.rt, 0.50), percentile(out.rt, 0.95), percentile(out.rt, 0.99), percentile(out.rt, 1),
		out.violations, starved)
	out.digest = hex.EncodeToString(h.Sum(nil))[:16]
	return out, nil
}

// collectHandlers sums the tracer's handler accumulators into the run and
// resets them, so consecutive traced runs do not mix.
func (out *simRun) collectHandlers(t *tracer, onMsg *logHist) {
	for i := range t.nodes {
		nt := &t.nodes[i]
		for _, c := range nt.calls {
			out.handlerCalls += c
		}
		out.linkEvents += nt.calls[kLinkUp] + nt.calls[kLinkDown]
		out.handlerNs += nt.busyNs - nt.envNs
		onMsg.merge(&nt.onMsg)
		*nt = nodeTrace{}
	}
}

func runSim(s simSpec, opt Options) (Result, error) {
	res := Result{Metrics: map[string]float64{}}
	in := genSimInputs(s, opt.Seed)
	budget := time.Duration(opt.Seconds * float64(time.Second))
	base := simOpts{horizon: s.horizon, warm: s.warm, heap: !opt.Traced}

	// Set-up probes: Build + Start takes tens of milliseconds.
	var setups []float64
	for i := 0; i < simSetupProbes && !opt.Traced; i++ {
		r, err := buildSim(s, in, opt.Seed, base)
		if err != nil {
			return res, err
		}
		setups = append(setups, r.setupS)
	}

	// The untraced reference run: the first run of the untraced pass; the
	// digest to reproduce and the overhead numerator of the traced pass.
	begin := time.Now()
	ref, err := execSim(s, in, opt.Seed, base)
	if err != nil {
		return res, err
	}
	lastRun := time.Since(begin)
	res.Digest = ref.digest
	res.Attempted, res.Failed = ref.attempted, ref.failed
	if ref.violations > 0 {
		res.problemf("%d safety violations", ref.violations)
	}
	if ref.meals == 0 {
		res.problemf("no critical section completed")
		return res, nil
	}
	res.notef("response time: %d samples of static nodes (virtual time); %d static nodes starved by the Prober rule; %d failed operations (starved beyond %d hops of the crash, or never served when there is none)",
		len(ref.rt), ref.starved, ref.failed-int64(ref.violations), simLocality)
	res.notef("GOMAXPROCS=%d shard workers, tiles %dx%d, one process", runtime.GOMAXPROCS(0), manet.AutoTiles(s.n), manet.AutoTiles(s.n))

	var t *tracer
	runs := []*simRun{ref}
	ref.run = nil
	if opt.Traced {
		// The traced runs have the budget to themselves.
		t = newTracer(s.n)
		runs = nil
		begin = time.Now()
	}
	var onMsg logHist
	// Another run starts while at least half of it still fits the budget.
	for len(runs) == 0 || time.Since(begin)+lastRun/2 < budget {
		o := base
		o.t = t
		runBegin := time.Now()
		r, err := execSim(s, in, opt.Seed, o)
		if err != nil {
			return res, err
		}
		lastRun = time.Since(runBegin)
		if t != nil {
			r.collectHandlers(t, &onMsg)
		}
		if r.digest != ref.digest {
			res.problemf("digest %s of a repeated run differs from the first run's %s (traced=%v): determinism or decorator transparency broken", r.digest, ref.digest, opt.Traced)
		}
		// Only the last traced run's world is read again (telemetry).
		if len(runs) > 0 {
			runs[len(runs)-1].run = nil
		}
		if t == nil {
			r.run = nil
		}
		runs = append(runs, r)
	}

	col := func(f func(*simRun) float64) float64 { return medianOf(runs, f) }
	// The timing metrics are medians over every RunFor slice of every run
	// (8 per run), the live workloads' bucket rule: a pass has two to four
	// runs, and the median of so few follows every hiccup of a shared box.
	// The run is the fixed unit of work, so its wall clock and CPU are the
	// first run's event count at the median rate and the median cost.
	var rates, cpuPerEvent []float64
	for _, r := range runs {
		for _, sl := range r.perSlice {
			rates = append(rates, float64(sl.events)/sl.wallS)
			cpuPerEvent = append(cpuPerEvent, sl.cpuS/float64(sl.events))
		}
	}
	eventsPerS := median(rates)
	wallS := float64(ref.events) / eventsPerS
	cpuS := median(cpuPerEvent) * float64(ref.events)
	opt.logf("  %s: %d runs of %v virtual, %d slices, wall %.3fs at the median rate (median run %.3fs), digest %s",
		s.name, len(runs), sim.ToDuration(s.horizon), len(rates), wallS, col(func(r *simRun) float64 { return r.wallS }), ref.digest)

	m := res.Metrics
	if !opt.Traced {
		for _, r := range runs {
			setups = append(setups, r.setupS)
		}
		m["setup_s"] = setupTime(&res, setups)
		m["acq_per_s"] = float64(ref.meals) / wallS
		m["grant_p50_us"] = float64(percentile(ref.rt, 0.50))
		m["grant_p99_us"] = float64(percentile(ref.rt, 0.99))
		m["cpu_ms_per_kacq"] = cpuS * 1e3 / (float64(ref.meals) / 1e3)
		m["msgs_per_cs"] = ref.msgsPerCS
		m["events_per_s"] = eventsPerS
		m["wall_s"] = wallS
		m["heap_bytes_per_node"] = col(func(r *simRun) float64 { return r.heapPerNode })
		m["rt_p95_ms"] = float64(percentile(ref.rt, 0.95)) / 1e3
		if !s.mobile {
			if err := checkWorkerInvariance(s, in, opt.Seed, &res); err != nil {
				return res, err
			}
		}
		return res, nil
	}

	// Per-layer metrics: medians over the traced runs; the engine
	// telemetry of the last one.
	last := runs[len(runs)-1]
	handlerS := col(func(r *simRun) float64 { return float64(r.handlerNs) / 1e9 })
	calls := col(func(r *simRun) float64 { return float64(r.handlerCalls) })
	events := float64(last.events)
	m["core.handler_calls"] = calls
	m["core.handler_busy_s"] = handlerS
	m["core.handler_ns_per_call"] = handlerS * 1e9 / max(calls, 1)
	m["core.onmessage_ns_p99"] = onMsg.quantile(0.99)
	m["core.calls_per_cs"] = calls / float64(last.meals)
	m["core.handler_share"] = handlerS / cpuS

	engineS := max(cpuS-handlerS, 0)
	m["manet.start_s"] = col(func(r *simRun) float64 { return r.setupS })
	m["manet.run_cpu_s"] = cpuS
	m["manet.engine_cpu_s"] = engineS
	m["manet.engine_ns_per_event"] = engineS * 1e9 / events
	m["manet.parallel_efficiency"] = cpuS / (wallS * float64(runtime.GOMAXPROCS(0)))
	m["manet.link_events"] = float64(last.linkEvents)
	m["manet.link_events_per_vsec"] = float64(last.linkEvents) / (float64(s.horizon-s.warm) / 1e6)
	setRuntimeMetrics(m, last.rtd, events, last.cpuS)
	m["bench.trace_overhead_x"] = (float64(ref.events) / ref.wallS) / eventsPerS
	m["bench.failed_share"] = float64(res.Failed) / float64(max(res.Attempted, 1))
	schedulerProbe(m)
	res.notef("traced runs: %.0f events/s against %.0f events/s untraced in this process", eventsPerS, float64(ref.events)/ref.wallS)

	// Engine telemetry and the bus counters cover a whole run (warm-up
	// included): those of the last traced run.
	tel := last
	if es := tel.run.World.EngineTelemetry(); es != nil {
		m["manet.windows"] = float64(es.Windows)
		if es.Windows > 0 {
			m["manet.events_per_window"] = float64(es.Events) / float64(es.Windows)
		}
		stall := metrics.FromSnapshot(es.BarrierStallNS)
		m["manet.barrier_stall_p50_us"] = stall.QuantileFloat(0.50) / 1e3
		m["manet.barrier_stall_p99_us"] = stall.QuantileFloat(0.99) / 1e3
		if es.StealAttempts > 0 {
			m["manet.steal_hit_ratio"] = float64(es.StealHits) / float64(es.StealAttempts)
		}
		m["manet.tile_imbalance"] = es.Imbalance
		var delivered uint64
		for _, ts := range es.PerTile {
			delivered += ts.MsgsDelivered
		}
		if delivered > 0 {
			m["manet.cross_tile_share"] = float64(es.CrossTileMsgs) / float64(delivered)
		}
	}
	bus := tel.run.World.Bus()
	m["trace.published"] = float64(bus.Total())
	m["trace.ring_overwritten"] = float64(bus.Overwritten())
	m["trace.sink_dropped"] = float64(bus.SinkDropped())

	if s.mobile {
		// The observability tax: the same inputs built Lean, untraced.
		o := base
		o.lean, o.heap = true, false
		lean, err := execSim(s, in, opt.Seed, o)
		if err != nil {
			return res, err
		}
		m["span.observed_vs_lean_x"] = ref.wallS / lean.wallS
		if lean.digest != ref.digest {
			res.problemf("digest %s of the Lean run differs from the observed run's %s: an observer changed the run", lean.digest, ref.digest)
		}
	}
	note := fmt.Sprintf("manet.RunFor slices of the measured part (op = slice index) and the handler calls of every %dth node under them; times in ns since process start", sampleEvery)
	return res, writeTrace(opt, s.name, note, t)
}

// checkWorkerInvariance runs a short-horizon copy of the workload with
// one shard worker and with GOMAXPROCS of them: the determinism contract
// says the digests agree.
func checkWorkerInvariance(s simSpec, in simInputs, seed uint64, res *Result) error {
	var digests [2]string
	for i, workers := range []int{1, 0} {
		r, err := execSim(s, in, seed, simOpts{workers: workers, horizon: checkHorizon, warm: checkHorizon / 4})
		if err != nil {
			return err
		}
		digests[i] = r.digest
	}
	if digests[0] != digests[1] {
		res.problemf("short-horizon digest differs between 1 worker (%s) and GOMAXPROCS workers (%s)", digests[0], digests[1])
	}
	res.notef("short-horizon digest identical at 1 and %d shard workers: %s", runtime.GOMAXPROCS(0), digests[0])
	return nil
}
