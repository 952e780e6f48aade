// Package harness assembles complete simulation runs: world + protocol
// instances + dining workload + safety checker + metrics, from a single
// declarative Spec. It is algorithm-agnostic — algorithms are injected as
// a protocol factory — and is used by the unit tests of every algorithm,
// by the experiment suite (experiments.go) and by the benchmarks.
package harness

import (
	"context"
	"fmt"
	"os"
	"sync/atomic"

	"lme/internal/core"
	"lme/internal/graph"
	"lme/internal/manet"
	"lme/internal/metrics"
	"lme/internal/progress"
	"lme/internal/sim"
	"lme/internal/span"
	"lme/internal/workload"
)

// Spec declares a run.
type Spec struct {
	// Seed drives every random choice of the run.
	Seed uint64

	// Points are the node positions; Radius is the radio range.
	Points []graph.Point
	Radius float64

	// NewProtocol builds the algorithm instance for each node.
	NewProtocol func(id core.NodeID) core.Protocol

	// Workload configures the dining cycle; the zero value selects
	// workload.DefaultConfig.
	Workload workload.Config

	// MinDelay/MaxDelay override the message delay bounds when nonzero.
	MinDelay, MaxDelay sim.Time

	// NonFIFO disables FIFO link delivery (assumption ablation).
	NonFIFO bool

	// TraceRing sizes the world's retained event history (0 = none).
	TraceRing int

	// Spans attaches a span.Collector to the run's event bus, folding the
	// event stream into CS-attempt spans, a wait-for graph and per-crash
	// locality attribution (Run.Spans).
	Spans bool

	// SpanFold selects the collector's streaming fold mode: closed spans
	// collapse immediately into the per-phase/per-node aggregates and are
	// discarded, bounding span memory by O(nodes) instead of O(run).
	// Summary, open spans, the wait-for graph and the crash attribution
	// are unaffected; Spans()/WriteJSONL are unavailable. Implies Spans.
	SpanFold bool

	// RetainSamples keeps the response recorder's exact per-sample
	// slices (Recorder.Samples/NodeSamples) alongside its streaming
	// sketch — the full-fidelity O(run) path, off by default.
	RetainSamples bool

	// PostmortemPath arms the flight recorder: on the first safety
	// violation the trace-ring tail, every open span and the wait-for
	// graph are dumped to this file. Requires Spans; a TraceRing makes
	// the dump's ring section non-empty.
	PostmortemPath string

	// Tiles and ShardWorkers shape manet's tile engine (see
	// manet.Config): the world is partitioned into a Tiles×Tiles grid
	// executed by up to ShardWorkers goroutines (0 = GOMAXPROCS); zero
	// or one runs one tile. The event trace is bit-identical for every
	// choice.
	Tiles        int
	ShardWorkers int

	// Deprecated: no effect; kept so the pinned bench module compiles.
	Lean bool

	// Telemetry enables the engine's execution-telemetry counters
	// (World.EngineTelemetry, surfaced through the progress heartbeat's
	// engine section). Out-of-band: traces, hashes and tables are
	// bit-identical with it on or off.
	Telemetry bool
}

// Run is an assembled simulation. It carries only the observers the
// harness reads itself: a caller that wants more (a metrics.Registry, a
// metrics.Timeline) attaches it to World before Start, so a run nobody
// asks about traffic builds no traffic event.
type Run struct {
	World    *manet.World
	Driver   *workload.Driver
	Checker  *metrics.SafetyChecker
	Recorder *metrics.ResponseRecorder
	Prober   *metrics.Prober

	// Spans folds the event stream into CS-attempt spans when
	// Spec.Spans was set (nil otherwise). Call FinalizeSpans once the
	// run is over, before reading Spans.Spans()/Impacts()/Summary().
	Spans *span.Collector

	started   bool
	finalized bool
	pmWritten bool

	// progress, when attached, is ticked at every RunContext slice
	// boundary and fed the run's gauges.
	progress *progress.Reporter

	// lossSeen tracks how much of the bus's trace-loss counters this run
	// has already folded into the process-wide totals.
	lossSeen struct{ overwritten, dropped uint64 }
}

// Build assembles a run; call Start (or RunFor, which starts implicitly)
// to execute it.
func Build(spec Spec) (*Run, error) {
	if len(spec.Points) == 0 {
		return nil, fmt.Errorf("harness: no nodes")
	}
	if spec.NewProtocol == nil {
		return nil, fmt.Errorf("harness: no protocol factory")
	}
	cfg := manet.DefaultConfig()
	cfg.Seed = spec.Seed
	if spec.Radius > 0 {
		cfg.Radius = spec.Radius
	}
	if spec.MinDelay > 0 {
		cfg.MinDelay = spec.MinDelay
	}
	if spec.MaxDelay > 0 {
		cfg.MaxDelay = spec.MaxDelay
	}
	cfg.NonFIFO = spec.NonFIFO
	cfg.TraceRing = spec.TraceRing
	cfg.Tiles = spec.Tiles
	cfg.ShardWorkers = spec.ShardWorkers
	cfg.Telemetry = spec.Telemetry
	w := manet.NewWorld(cfg)
	for _, p := range spec.Points {
		id := w.AddNode(p)
		w.SetProtocol(id, spec.NewProtocol(id))
	}

	wcfg := spec.Workload
	if wcfg.EatTime == 0 && wcfg.ThinkMin == 0 && wcfg.ThinkMax == 0 {
		defaults := workload.DefaultConfig()
		defaults.Participants = wcfg.Participants
		wcfg = defaults
	}
	var recOpts []metrics.RecorderOption
	if spec.RetainSamples {
		recOpts = append(recOpts, metrics.Retain())
	}
	r := &Run{
		World:    w,
		Driver:   workload.New(w, wcfg),
		Checker:  metrics.NewSafetyChecker(w),
		Recorder: metrics.NewResponseRecorder(recOpts...),
		Prober:   metrics.NewProber(),
	}
	if spec.Spans || spec.SpanFold {
		if spec.SpanFold {
			r.Spans = span.NewStreaming()
		} else {
			r.Spans = span.New()
		}
		// Seed the initial adjacency: links that exist from t=0 emit no
		// KindLink events, so the collector cannot learn them from the
		// stream the way an offline trace reader would guess from Sends.
		g := graph.UnitDisk(spec.Points, cfg.Radius)
		for u := 0; u < g.N(); u++ {
			for _, v := range g.Neighbors(u) {
				if u < v {
					r.Spans.SeedLink(core.NodeID(u), core.NodeID(v))
				}
			}
		}
		r.Spans.Attach(w.Bus())
		if spec.PostmortemPath != "" {
			path := spec.PostmortemPath
			r.Checker.SetOnViolation(func(v metrics.Violation) {
				if r.pmWritten {
					return
				}
				r.pmWritten = true
				f, err := os.Create(path)
				if err != nil {
					return
				}
				defer f.Close()
				ring := w.Bus().Recent(1 << 20)
				_ = span.WritePostmortem(f, v.String(), v.At, ring, r.Spans)
			})
		}
	}
	w.AddStateListener(r.Checker)
	w.AddStateListener(r.Recorder)
	w.AddStateListener(r.Prober)
	// The driver runs inline in the transitioning node's execution
	// context (it schedules the node's follow-up events); outside
	// parallel windows this preserves its legacy last-listener slot.
	w.AddLocalStateListener(r.Driver)
	w.AddLinkListener(r.Checker)
	w.AddMoveListener(r.Recorder)
	return r, nil
}

// Start initialises the protocols and schedules the workload. It is
// idempotent.
func (r *Run) Start() error {
	if r.started {
		return nil
	}
	r.started = true
	if err := r.World.Start(); err != nil {
		return err
	}
	r.Driver.Start()
	return nil
}

// RunFor advances virtual time by d (from the current instant) and then
// verifies the safety invariant, returning its violation (if any) or any
// scheduler error. The event budget guards against livelock; it scales
// with the horizon and node count.
func (r *Run) RunFor(d sim.Time) error {
	return r.RunContext(context.Background(), d)
}

// RunContext is RunFor with cooperative cancellation: virtual time
// advances in slices and the run aborts with ctx's error at the next
// slice boundary once ctx is done. The event sequence is identical to an
// unsliced run — slicing only adds cancellation points — so results stay
// bit-for-bit deterministic per seed.
func (r *Run) RunContext(ctx context.Context, d sim.Time) error {
	if err := r.Start(); err != nil {
		return err
	}
	w := r.World
	deadline := w.Now() + d
	remaining := uint64(w.N()+1) * uint64(d/50+1_000_000)
	slice := d / 64
	if slice < 1 {
		slice = 1
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		next := w.Now() + slice
		if next > deadline {
			next = deadline
		}
		ran, err := r.runUntil(next, remaining)
		if err != nil {
			return err
		}
		// RunUntil errors when it exhausts the budget, so on success
		// strictly fewer events ran and the remainder stays positive.
		remaining -= ran
		if r.progress != nil {
			r.progress.Tick()
		}
		if w.Now() >= deadline {
			break
		}
	}
	r.foldTraceLoss()
	return r.Checker.Err()
}

// runUntil advances the world to deadline within the event budget and
// credits the events it executed to the process-wide EventsProcessed
// total — one atomic add per call, where a per-event hook would have
// every shard worker and fleet job contend on the counter.
func (r *Run) runUntil(deadline sim.Time, maxEvents uint64) (ran uint64, err error) {
	before := r.World.Processed()
	err = r.World.RunUntil(deadline, maxEvents)
	ran = r.World.Processed() - before
	totalEvents.Add(ran)
	return ran, err
}

// AttachProgress binds a heartbeat reporter to this run's gauges; it is
// ticked at every RunContext slice boundary (wall-clock gated, so the
// per-slice cost is two time loads when quiet). Call Reporter.Final
// after the run for the closing record.
func (r *Run) AttachProgress(cfg progress.Config) *progress.Reporter {
	bus := r.World.Bus()
	src := progress.Sources{
		Now:    r.World.Now,
		Events: r.World.Processed,
		Loss:   func() (uint64, uint64) { return bus.Overwritten(), bus.SinkDropped() },
	}
	if r.Spans != nil {
		src.OpenSpans = r.Spans.OpenCount
	}
	// The engine section rides along when the world collects telemetry.
	// Safe here because this reporter is ticked at slice boundaries —
	// coordinator context, no window in flight.
	if r.World.Config().Telemetry {
		src.Engine = r.World.EngineTelemetry
	}
	r.progress = progress.New(cfg, src)
	return r.progress
}

// foldTraceLoss accumulates this run's bus loss counters into the
// process-wide totals, counting each loss exactly once across repeated
// RunContext calls.
func (r *Run) foldTraceLoss() {
	bus := r.World.Bus()
	ov, dr := bus.Overwritten(), bus.SinkDropped()
	totalOverwritten.Add(ov - r.lossSeen.overwritten)
	totalSinkDropped.Add(dr - r.lossSeen.dropped)
	r.lossSeen.overwritten, r.lossSeen.dropped = ov, dr
}

// FinalizeSpans closes every attempt still open at the current instant
// and computes the per-crash locality attribution. Idempotent; a no-op
// when the run was built without Spec.Spans.
func (r *Run) FinalizeSpans() {
	if r.Spans == nil || r.finalized {
		return
	}
	r.finalized = true
	r.Spans.Finalize(r.World.Now())
}

// TotalMeals counts critical-section entries across all nodes.
func (r *Run) TotalMeals() int {
	total := 0
	for i := 0; i < r.World.N(); i++ {
		total += r.Recorder.EatCount(core.NodeID(i))
	}
	return total
}

// MessagesPerMeal reports protocol messages sent per completed critical
// section — the paper's natural message-complexity measure (0 when no
// meal completed).
func (r *Run) MessagesPerMeal() float64 {
	return metrics.PerMeal(r.World.MessagesSent(), r.TotalMeals())
}

// totalEvents counts scheduler events executed across every Run the
// harness built, for aggregate events/sec reporting in cmd/lmebench. It
// is atomic because test packages run harness simulations in parallel.
var totalEvents atomic.Uint64

// EventsProcessed reports the scheduler events executed by all harness
// runs of this process so far.
func EventsProcessed() uint64 { return totalEvents.Load() }

// totalOverwritten/totalSinkDropped accumulate trace-loss counters
// across every Run (folded in at slice boundaries), so fleet drivers can
// report loss deltas per experiment without reaching into worker runs.
var totalOverwritten, totalSinkDropped atomic.Uint64

// TraceLoss reports the cumulative trace-loss counters of all harness
// runs of this process so far: events overwritten in flight-recorder
// rings and events dropped by saturated sinks.
func TraceLoss() (overwritten, dropped uint64) {
	return totalOverwritten.Load(), totalSinkDropped.Load()
}

// EveryoneAte reports whether every participant entered the critical
// section at least once, returning the IDs of those that did not.
func (r *Run) EveryoneAte() (bool, []core.NodeID) {
	var hungry []core.NodeID
	for i := 0; i < r.World.N(); i++ {
		id := core.NodeID(i)
		if !r.Driver.Participates(id) || r.World.Crashed(id) {
			continue
		}
		if r.Recorder.EatCount(id) == 0 {
			hungry = append(hungry, id)
		}
	}
	return len(hungry) == 0, hungry
}

// LinePoints places n nodes on a horizontal line with the given spacing
// (neighbouring nodes adjacent iff spacing ≤ radius).
func LinePoints(n int, spacing float64) []graph.Point {
	pts := make([]graph.Point, n)
	for i := range pts {
		pts[i] = graph.Point{X: float64(i) * spacing}
	}
	return pts
}

// CliquePoints places n nodes close together so all are mutually
// adjacent for any radius ≥ 0.1.
func CliquePoints(n int) []graph.Point {
	pts := make([]graph.Point, n)
	for i := range pts {
		pts[i] = graph.Point{X: float64(i) * 0.001, Y: float64(i%7) * 0.001}
	}
	return pts
}

// GridPoints places rows×cols nodes with the given spacing.
func GridPoints(rows, cols int, spacing float64) []graph.Point {
	pts := make([]graph.Point, 0, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			pts = append(pts, graph.Point{X: float64(c) * spacing, Y: float64(r) * spacing})
		}
	}
	return pts
}

// GeometricPoints samples a connected random geometric layout.
func GeometricPoints(n int, radius float64, seed uint64) ([]graph.Point, error) {
	rng := sim.NewRand(seed)
	_, pts, err := graph.ConnectedGeometric(n, radius, rng)
	return pts, err
}
