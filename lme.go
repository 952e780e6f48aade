// Package lme is a from-scratch reproduction of "Efficient and Robust
// Local Mutual Exclusion in Mobile Ad Hoc Networks" (ICDCS 2008): two
// algorithms for local mutual exclusion — the dining-philosophers problem
// generalised to mobile ad hoc networks — together with the simulated
// MANET substrate they run on, the baselines they are compared against,
// and the measurement harness that reproduces the paper's Table 1 and
// theorem-predicted scaling behaviour.
//
// The package is a facade: it wires a simulated world, an algorithm
// instance per node, a dining-cycle workload, an online mutual-exclusion
// safety checker, and response-time/starvation metrics into a Simulation
// that is driven in virtual time. See DESIGN.md for the system inventory
// and EXPERIMENTS.md for the measured results.
//
// Quick start:
//
//	sim, err := lme.NewSimulation(lme.Config{
//		Algorithm: lme.Alg2,
//		Topology:  lme.Line(8),
//	})
//	if err != nil { ... }
//	if err := sim.RunFor(2 * time.Second); err != nil { ... }
//	fmt.Println(sim.Results())
package lme

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"lme/internal/baseline"
	"lme/internal/core"
	"lme/internal/graph"
	"lme/internal/harness"
	"lme/internal/lme1"
	"lme/internal/lme2"
	"lme/internal/manet"
	"lme/internal/metrics"
	"lme/internal/progress"
	"lme/internal/sim"
	"lme/internal/span"
	"lme/internal/trace"
	"lme/internal/workload"
)

// Algorithm selects the local mutual exclusion protocol under test.
type Algorithm string

// The implemented algorithms and baselines.
const (
	// Alg1Greedy is the paper's first algorithm with the greedy
	// recolouring procedure (Algorithm 4): failure locality n, response
	// time O((n+δ³)δ), no knowledge of n or δ required.
	Alg1Greedy Algorithm = "alg1-greedy"
	// Alg1Linial is the first algorithm with the Linial-based
	// recolouring (Algorithm 5): failure locality max(log* n, 4)+2,
	// response time O((log* n+δ⁴)δ); assumes n and δ known.
	Alg1Linial Algorithm = "alg1-linial"
	// Alg1LinialReduce is Alg1Linial followed by deterministic colour
	// reduction to a δ+1 palette — the conversion the paper's
	// discussion chapter mentions; more recolouring rounds, smaller Δ.
	Alg1LinialReduce Algorithm = "alg1-linial-reduce"
	// Alg2 is the second algorithm (Chapter 6): optimal failure
	// locality 2, response time O(n²) mobile and O(n) static.
	Alg2 Algorithm = "alg2"
	// ChandyMisra is the hygienic dining philosophers baseline with
	// failure locality n.
	ChandyMisra Algorithm = "chandy-misra"
	// ChoySingh is the static doubly-doored baseline with a
	// pre-computed colouring (failure locality 4).
	ChoySingh Algorithm = "choy-singh"
	// Alg2NoNotify is Alg2 without the notification mechanism — the
	// ablation that loses the O(n) static response time.
	Alg2NoNotify Algorithm = "alg2-nonotify"
	// GlobalToken is Raymond's tree-token GLOBAL mutual exclusion — the
	// class of algorithms the paper's introduction contrasts local
	// mutual exclusion with. Static topologies only.
	GlobalToken Algorithm = "global-token"
)

// algorithmEntry is one row of the algorithm registry: the single source
// of truth tying a selectable name to its documentation line and node
// constructor. Algorithms(), AlgorithmDoc, protocolFactory and the
// lmesim -alg usage text all derive from this table.
type algorithmEntry struct {
	Name Algorithm
	Doc  string
	// New builds the per-node protocol factory for a concrete topology.
	New func(topo Topology, recolorFirst bool) func(core.NodeID) core.Protocol
}

// algorithmRegistry lists the entries in presentation order (paper
// algorithms first, then baselines).
var algorithmRegistry = []algorithmEntry{
	{Alg1Greedy, "paper Alg 1, greedy recolouring: FL n, RT O((n+δ³)δ)",
		func(_ Topology, recolorFirst bool) func(core.NodeID) core.Protocol {
			return func(core.NodeID) core.Protocol {
				return lme1.New(lme1.Config{Variant: lme1.VariantGreedy, RecolorFirst: recolorFirst})
			}
		}},
	{Alg1Linial, "paper Alg 1, Linial recolouring: FL max(log*n,4)+2, RT O((log*n+δ⁴)δ)",
		func(topo Topology, recolorFirst bool) func(core.NodeID) core.Protocol {
			n, delta := topo.size()
			return func(core.NodeID) core.Protocol {
				return lme1.New(lme1.Config{Variant: lme1.VariantLinial, N: n, Delta: delta, RecolorFirst: recolorFirst})
			}
		}},
	{Alg1LinialReduce, "Alg 1, Linial recolouring plus colour reduction to δ+1",
		func(topo Topology, recolorFirst bool) func(core.NodeID) core.Protocol {
			n, delta := topo.size()
			return func(core.NodeID) core.Protocol {
				return lme1.New(lme1.Config{Variant: lme1.VariantLinialReduce, N: n, Delta: delta, RecolorFirst: recolorFirst})
			}
		}},
	{Alg2, "paper Alg 2: FL 2 (optimal), RT O(n²) mobile / O(n) static",
		func(Topology, bool) func(core.NodeID) core.Protocol {
			return func(core.NodeID) core.Protocol { return lme2.New() }
		}},
	{ChandyMisra, "hygienic dining philosophers baseline: FL n",
		func(Topology, bool) func(core.NodeID) core.Protocol {
			return func(core.NodeID) core.Protocol { return baseline.NewChandyMisra() }
		}},
	{ChoySingh, "static doubly-doored baseline, pre-computed colouring: FL 4",
		func(topo Topology, _ bool) func(core.NodeID) core.Protocol {
			return baseline.NewChoySingh(topo.graph())
		}},
	{Alg2NoNotify, "Alg 2 without notifications (ablation): loses O(n) static RT",
		func(Topology, bool) func(core.NodeID) core.Protocol {
			return func(core.NodeID) core.Protocol { return baseline.NewNoNotify() }
		}},
	{GlobalToken, "Raymond tree-token GLOBAL mutual exclusion contrast; static only",
		func(topo Topology, _ bool) func(core.NodeID) core.Protocol {
			return baseline.NewGlobalToken(topo.graph())
		}},
}

// Algorithms lists every selectable algorithm, in registry order.
func Algorithms() []Algorithm {
	names := make([]Algorithm, len(algorithmRegistry))
	for i, e := range algorithmRegistry {
		names[i] = e.Name
	}
	return names
}

// AlgorithmDoc returns the one-line description of an algorithm ("" when
// unknown).
func AlgorithmDoc(a Algorithm) string {
	for _, e := range algorithmRegistry {
		if e.Name == a {
			return e.Doc
		}
	}
	return ""
}

// Point is a position on the plane (unit square by convention).
type Point = graph.Point

// Topology is a set of node positions plus the radio range that induces
// the communication graph — or, for the live runtime, a pre-built
// communication graph with no coordinates (see FromGraph).
type Topology struct {
	Points []Point
	Radius float64

	// prebuilt, when set, short-circuits the unit-disk construction:
	// the topology IS this graph. Point-free topologies drive the live
	// runtime (which needs no coordinates) but cannot be simulated —
	// the mobility substrate needs positions.
	prebuilt *graph.Graph
}

// FromGraph wraps an explicit communication graph as a Topology, the
// form the live runtime and the load generator consume (graph.Ring,
// graph.Line, … construct in O(n), where the unit-disk induction is
// O(n²)). A FromGraph topology has no coordinates: NewSimulation rejects
// it, NewProtocols accepts it.
func FromGraph(g *graph.Graph) Topology { return Topology{prebuilt: g} }

// graph materialises the induced unit-disk communication graph.
func (t Topology) graph() *graph.Graph {
	if t.prebuilt != nil {
		return t.prebuilt
	}
	return graph.UnitDisk(t.Points, t.Radius)
}

// size returns (n, δ) of the induced graph, with δ floored at 1.
func (t Topology) size() (n, delta int) {
	g := t.graph()
	return g.N(), max(g.MaxDegree(), 1)
}

// Graph exposes the topology's communication graph — what the live
// runtime (internal/livenet) is built over.
func (t Topology) Graph() *graph.Graph { return t.graph() }

// NewProtocols instantiates one protocol per node of the topology for
// the named algorithm — the same registry (same names, same did-you-mean
// suggestions) behind NewSimulation and lmesim -alg, exposed so the live
// runtime, the load generator and the examples wire algorithms without
// private duplicates of the registry.
func NewProtocols(a Algorithm, t Topology) ([]core.Protocol, error) {
	factory, err := protocolFactory(a, t, false)
	if err != nil {
		return nil, err
	}
	n := t.graph().N()
	protos := make([]core.Protocol, n)
	for i := range protos {
		protos[i] = factory(core.NodeID(i))
	}
	return protos, nil
}

// Line places n nodes on a line with unit-disk adjacency between
// consecutive nodes only.
func Line(n int) Topology {
	return Topology{Points: harness.LinePoints(n, 0.1), Radius: 0.11}
}

// Clique places n mutually adjacent nodes.
func Clique(n int) Topology {
	return Topology{Points: harness.CliquePoints(n), Radius: 0.2}
}

// Grid places rows×cols nodes with 4-neighbour adjacency.
func Grid(rows, cols int) Topology {
	return Topology{Points: harness.GridPoints(rows, cols, 0.1), Radius: 0.11}
}

// Geometric samples a connected random geometric graph on the unit square.
func Geometric(n int, radius float64, seed uint64) (Topology, error) {
	pts, err := harness.GeometricPoints(n, radius, seed)
	if err != nil {
		return Topology{}, err
	}
	return Topology{Points: pts, Radius: radius}, nil
}

// Config declares a simulation.
type Config struct {
	// Algorithm under test; required.
	Algorithm Algorithm

	// Topology of the initial deployment; required.
	Topology Topology

	// Seed drives all randomness (default 1).
	Seed uint64

	// EatTime is the critical-section duration τ (default 5ms).
	EatTime time.Duration
	// ThinkMin/ThinkMax bound the uniform thinking period (default
	// 0–10ms).
	ThinkMin, ThinkMax time.Duration

	// MaxMessageDelay is the paper's ν (default 10ms).
	MaxMessageDelay time.Duration

	// Participants restricts the dining cycle to these nodes (nil =
	// all).
	Participants []int

	// InitialRecoloring makes every Algorithm-1 node run the
	// recolouring module on its first hungry journey instead of using
	// ID colours — the paper's distributed pre-colouring (Ch. 5/7).
	// Ignored by the other algorithms.
	InitialRecoloring bool

	// PostmortemPath arms the flight recorder: on the first mutual
	// exclusion violation the tail of the event ring, every open CS
	// attempt and the wait-for graph are dumped to this file.
	PostmortemPath string

	// FoldSpans selects the span layer's streaming fold mode: closed
	// attempts are folded into per-node/per-phase aggregates immediately
	// and discarded, making span memory O(nodes) instead of O(attempts).
	// Report and SpanSummary are unchanged; WriteSpans errors because
	// per-span records were never retained.
	FoldSpans bool

	// RetainSamples keeps every raw response-time sample alongside the
	// quantile sketch (O(meals) memory) so exact nearest-rank quantiles
	// remain available via the harness; the default is sketch-only,
	// accurate to ±1% relative error.
	RetainSamples bool

	// Tiles is the side of the simulator's tile grid: the deployment's
	// bounding box is partitioned into a Tiles×Tiles grid of spatial
	// shards, each with its own event heap, executed by up to
	// ShardWorkers goroutines with conservative lookahead. 0 or 1 run one
	// tile on the calling goroutine. The event trace (and hence every
	// result) is bit-identical across tilings and worker counts; only
	// the wall-clock changes. Use AutoTiles(n) for a size-appropriate
	// default.
	Tiles int

	// ShardWorkers bounds the sharded engine's worker goroutines
	// (0 = GOMAXPROCS); ignored when Tiles ≤ 1.
	ShardWorkers int

	// Telemetry collects the execution engine's introspection counters
	// (per-tile events, window/barrier statistics, steal and cross-tile
	// traffic tallies — schema lme/telemetry/v1) and attaches them to
	// progress heartbeats as the "engine" section. Out-of-band: enabling
	// it changes no trace, hash or result.
	Telemetry bool
}

// AutoTiles suggests a tile-grid side for an n-node world (roughly 64
// nodes per tile, clamped to [1, 64]) — the default lmesim/lmebench use
// when asked for "auto" sharding.
func AutoTiles(n int) int { return manet.AutoTiles(n) }

// ProgressConfig configures live run telemetry: a wall-clock heartbeat
// sampling events/sec, virtual-time rate, open spans, heap bytes and
// trace-loss counters (schema lme/progress/v1).
type ProgressConfig struct {
	// Every is the minimum spacing between heartbeats (default 2s).
	Every time.Duration
	// Human receives a one-line rendering per heartbeat (typically
	// os.Stderr); nil disables it.
	Human io.Writer
	// JSONL receives one lme/progress/v1 record per line; nil disables.
	JSONL io.Writer
	// Label names the run in every record.
	Label string
}

// Simulation is an assembled run.
type Simulation struct {
	run  *harness.Run
	alg  Algorithm
	prog *progress.Reporter

	// reg and tl are the facade's own observers (the harness attaches
	// none): the traffic counts behind Report and MetricsSnapshot, and
	// the meals behind Gantt (nil under FoldSpans, which retains none).
	reg *metrics.Registry
	tl  *metrics.Timeline
}

// NewSimulation builds a simulation from the configuration.
func NewSimulation(cfg Config) (*Simulation, error) {
	if cfg.Topology.prebuilt != nil && len(cfg.Topology.Points) == 0 {
		return nil, fmt.Errorf("lme: FromGraph topologies have no coordinates and cannot be simulated; use point topologies (Line, Grid, …) for NewSimulation")
	}
	factory, err := protocolFactory(cfg.Algorithm, cfg.Topology, cfg.InitialRecoloring)
	if err != nil {
		return nil, err
	}
	if cfg.Tiles < 0 || cfg.Tiles > 128 {
		return nil, fmt.Errorf("lme: invalid Tiles %d (want 0..128; 0 or 1 = one tile, or AutoTiles(n))", cfg.Tiles)
	}
	if cfg.ShardWorkers < 0 {
		return nil, fmt.Errorf("lme: invalid ShardWorkers %d (want ≥ 0; 0 = GOMAXPROCS)", cfg.ShardWorkers)
	}
	wl := workload.DefaultConfig()
	if cfg.EatTime > 0 {
		wl.EatTime = sim.FromDuration(cfg.EatTime)
	}
	if cfg.ThinkMin > 0 || cfg.ThinkMax > 0 {
		wl.ThinkMin = sim.FromDuration(cfg.ThinkMin)
		wl.ThinkMax = sim.FromDuration(cfg.ThinkMax)
	}
	if cfg.Participants != nil {
		wl.Participants = make([]core.NodeID, len(cfg.Participants))
		for i, p := range cfg.Participants {
			wl.Participants[i] = core.NodeID(p)
		}
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	spec := harness.Spec{
		Seed:           seed,
		Points:         cfg.Topology.Points,
		Radius:         cfg.Topology.Radius,
		NewProtocol:    factory,
		Workload:       wl,
		Spans:          !cfg.FoldSpans,
		SpanFold:       cfg.FoldSpans,
		RetainSamples:  cfg.RetainSamples,
		PostmortemPath: cfg.PostmortemPath,
		Tiles:          cfg.Tiles,
		ShardWorkers:   cfg.ShardWorkers,
		Telemetry:      cfg.Telemetry,
	}
	if cfg.MaxMessageDelay > 0 {
		spec.MaxDelay = sim.FromDuration(cfg.MaxMessageDelay)
	}
	if cfg.PostmortemPath != "" {
		// The dump's ring section needs retained history.
		spec.TraceRing = 4096
	}
	run, err := harness.Build(spec)
	if err != nil {
		return nil, err
	}
	s := &Simulation{run: run, alg: cfg.Algorithm, reg: metrics.NewRegistry()}
	metrics.Instrument(run.World.Bus(), s.reg, run.World.TypeNamer())
	if !cfg.FoldSpans {
		// Added after Build, it still runs after checker, recorder, prober.
		s.tl = metrics.NewTimeline()
		run.World.AddStateListener(s.tl)
	}
	return s, nil
}

// protocolFactory resolves an Algorithm through the registry; an unknown
// name errors with the closest registered name as a suggestion.
func protocolFactory(a Algorithm, topo Topology, recolorFirst bool) (func(core.NodeID) core.Protocol, error) {
	for _, e := range algorithmRegistry {
		if e.Name == a {
			return e.New(topo, recolorFirst), nil
		}
	}
	if near := nearestAlgorithm(a); near != "" {
		return nil, fmt.Errorf("lme: unknown algorithm %q (did you mean %q?)", a, near)
	}
	return nil, fmt.Errorf("lme: unknown algorithm %q (known: %v)", a, Algorithms())
}

// nearestAlgorithm returns the registered name closest to a by edit
// distance, or "" when nothing is plausibly close.
func nearestAlgorithm(a Algorithm) Algorithm {
	best, bestDist := Algorithm(""), len(a)/2+2
	names := Algorithms()
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] }) // deterministic tie-break
	for _, name := range names {
		if d := editDistance(string(a), string(name)); d < bestDist {
			best, bestDist = name, d
		}
	}
	return best
}

// editDistance is the Levenshtein distance between two short names.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(min(cur[j-1]+1, prev[j]+1), prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// RunFor advances the simulation by d of virtual time, then reports any
// safety violation or scheduler error.
func (s *Simulation) RunFor(d time.Duration) error {
	return s.run.RunFor(sim.FromDuration(d))
}

// RunContext is RunFor with cooperative cancellation: the run aborts with
// ctx's error at the next slice of virtual time once ctx is done. The
// event sequence is identical to RunFor per seed.
func (s *Simulation) RunContext(ctx context.Context, d time.Duration) error {
	return s.run.RunContext(ctx, sim.FromDuration(d))
}

// Now returns the current virtual time.
func (s *Simulation) Now() time.Duration {
	return sim.ToDuration(s.run.World.Now())
}

// checkNodes validates node IDs against the world size.
func (s *Simulation) checkNodes(ids ...int) error {
	for _, id := range ids {
		if id < 0 || id >= s.run.World.N() {
			return fmt.Errorf("lme: no node %d (n=%d)", id, s.run.World.N())
		}
	}
	return nil
}

// Crash fails node id at virtual time at (measured from the start of the
// run). Crashed nodes silently stop, per the paper's model.
func (s *Simulation) Crash(id int, at time.Duration) error {
	if err := s.checkNodes(id); err != nil {
		return err
	}
	s.run.World.CrashAt(core.NodeID(id), sim.FromDuration(at))
	return nil
}

// Jump relocates node id at virtual time at; the node is flagged moving
// for settle.
func (s *Simulation) Jump(id int, dest Point, at, settle time.Duration) error {
	if err := s.checkNodes(id); err != nil {
		return err
	}
	s.run.World.JumpAt(core.NodeID(id), dest, sim.FromDuration(settle), sim.FromDuration(at))
	return nil
}

// Roam attaches random-waypoint mobility (speed in plane units/second) to
// the given nodes until the given virtual time. It starts the simulation
// (mobility draws from the run's random stream), so a failing protocol
// initialisation surfaces here.
func (s *Simulation) Roam(ids []int, speed float64, until time.Duration) error {
	if err := s.checkNodes(ids...); err != nil {
		return err
	}
	if err := s.run.Start(); err != nil {
		return err
	}
	nodeIDs := make([]core.NodeID, len(ids))
	for i, id := range ids {
		nodeIDs[i] = core.NodeID(id)
	}
	wp := manet.Waypoint{
		Speed:    speed,
		PauseMin: 20_000,
		PauseMax: 200_000,
		Until:    sim.FromDuration(until),
	}
	wp.Attach(s.run.World, nodeIDs)
	return nil
}

// Results summarises a run.
type Results struct {
	// SafetyViolations counts breaches of local mutual exclusion; any
	// nonzero value is a bug in the algorithm under test.
	SafetyViolations int
	// ResponseCount/Mean/P95/Max summarise hungry→eating latencies of
	// nodes that stayed static for the interval (Definition 1).
	ResponseCount                          int
	ResponseMean, ResponseP95, ResponseMax time.Duration
	// TotalMeals counts critical-section entries across all nodes.
	TotalMeals int
	// MessagesSent counts protocol messages handed to the transport.
	MessagesSent uint64
	// Starved lists nodes hungry for the final fifth of the run.
	Starved []int
}

// String renders the results compactly.
func (r Results) String() string {
	return fmt.Sprintf("violations=%d meals=%d response{n=%d mean=%v p95=%v max=%v} starved=%v",
		r.SafetyViolations, r.TotalMeals, r.ResponseCount,
		r.ResponseMean, r.ResponseP95, r.ResponseMax, r.Starved)
}

// Results snapshots the run's metrics.
func (s *Simulation) Results() Results {
	st := s.run.Recorder.Stats()
	now := s.run.World.Now()
	var starved []int
	for _, id := range s.run.Prober.Blocked(now, now/5) {
		starved = append(starved, int(id))
	}
	total := 0
	for i := 0; i < s.run.World.N(); i++ {
		total += s.run.Recorder.EatCount(core.NodeID(i))
	}
	return Results{
		SafetyViolations: len(s.run.Checker.Violations()),
		ResponseCount:    st.Count,
		ResponseMean:     sim.ToDuration(st.Mean),
		ResponseP95:      sim.ToDuration(st.P95),
		ResponseMax:      sim.ToDuration(st.Max),
		TotalMeals:       total,
		MessagesSent:     s.run.World.MessagesSent(),
		Starved:          starved,
	}
}

// EatCount reports how many times node id entered its critical section.
func (s *Simulation) EatCount(id int) int {
	return s.run.Recorder.EatCount(core.NodeID(id))
}

// NodeState reports the current dining state name of node id.
func (s *Simulation) NodeState(id int) string {
	return s.run.World.State(core.NodeID(id)).String()
}

// Neighbors returns the current neighbour IDs of node id.
func (s *Simulation) Neighbors(id int) []int {
	nbrs := s.run.World.Neighbors(core.NodeID(id))
	out := make([]int, len(nbrs))
	for i, nb := range nbrs {
		out[i] = int(nb)
	}
	return out
}

// ResponseStats exposes the full response-time summary.
func (s *Simulation) ResponseStats() metrics.Stats { return s.run.Recorder.Stats() }

// Gantt renders the last window of the run as an ASCII eating timeline,
// one row per node, width columns wide. Unavailable (empty string) in
// FoldSpans mode, which retains no interval history.
func (s *Simulation) Gantt(window time.Duration, width int) string {
	if s.tl == nil {
		return ""
	}
	now := s.run.World.Now()
	from := now - sim.FromDuration(window)
	if from < 0 {
		from = 0
	}
	return s.tl.Gantt(s.run.World.N(), from, now, width)
}

// SetTracer installs a human-readable renderer over the typed event
// stream: state transitions, link changes, mobility, crashes, doorway
// crossings, recolouring and protocol notes. Per-message traffic is
// deliberately excluded to keep the rendering readable; subscribe to
// Bus() (or write a JSONL trace) for the full stream. Call before RunFor.
func (s *Simulation) SetTracer(f func(at time.Duration, line string)) {
	s.run.World.Bus().Subscribe(func(e trace.Event) {
		f(sim.ToDuration(e.At), e.String())
	}, trace.KindState, trace.KindLinkUp, trace.KindLinkDown,
		trace.KindMoveStart, trace.KindMoveStop, trace.KindCrash,
		trace.KindDoorway, trace.KindRecolor, trace.KindNote)
}

// Bus exposes the run's typed event stream for subscribers and JSONL
// sinks. Attach before RunFor to observe the whole run.
func (s *Simulation) Bus() *trace.Bus { return s.run.World.Bus() }

// ReportSchema identifies the JSON layout of Report; bump on breaking
// changes so downstream diffing tools can refuse mixed comparisons.
// v2 added the spans section and the trace loss counters; v3 added the
// folded span aggregates (phase/attempt percentiles, per-node slice) and
// the response/link-delay quantile-sketch snapshots.
const ReportSchema = "lme/run/v3"

// Report is the machine-readable summary of a run: the telemetry object
// behind lmesim -json, designed to be schema-stable so CI and benchmark
// tooling can diff it across commits.
type Report struct {
	Schema string `json:"schema"`
	// Algorithm under test.
	Algorithm string `json:"algorithm"`
	// Nodes is the system size n.
	Nodes int `json:"nodes"`
	// SimulatedUS is the virtual time simulated, in microseconds.
	SimulatedUS int64 `json:"simulated_us"`
	// WallMS is the wall-clock run time in milliseconds (0 if the
	// caller did not measure it).
	WallMS float64 `json:"wall_ms"`
	// SchedEvents counts discrete-event executions; with WallMS it
	// yields EventsPerSec, the scheduler throughput.
	SchedEvents  uint64  `json:"sched_events"`
	EventsPerSec float64 `json:"events_per_sec"`

	Meals      int   `json:"meals"`
	Violations int   `json:"violations"`
	Starved    []int `json:"starved"`

	Response ResponseReport `json:"response"`
	Messages MessageReport  `json:"messages"`

	// LinkDelay is the delivery-delay histogram; its max empirically
	// validates the ν bound. LinkDelaySketch carries the same
	// distribution as a mergeable quantile sketch (exact
	// count/sum/min/max, quantiles to ±1% relative error).
	LinkDelay       metrics.HistogramSnapshot `json:"link_delay"`
	LinkDelaySketch metrics.SketchSnapshot    `json:"link_delay_sketch"`

	// Spans is the span layer's fold of the run: CS-attempt and phase
	// aggregates plus the per-crash failure-locality attribution.
	Spans *span.Summary `json:"spans,omitempty"`

	// SpanNodes is the per-node slice of the span fold: attempts, meals,
	// crashes, demotions and busy time per node. O(nodes) memory in both
	// retained and streaming modes.
	SpanNodes []span.NodeAggregate `json:"span_nodes,omitempty"`

	// Trace reports event-stream integrity: how much of the run the
	// observability layer actually saw.
	Trace TraceReport `json:"trace"`

	// Counters is the raw registry dump for everything not broken out
	// above.
	Counters map[string]uint64 `json:"counters"`
}

// TraceReport counts events the trace layer lost: ring slots recycled
// before anyone read them and events a failed JSONL sink never wrote.
type TraceReport struct {
	RingOverwritten uint64 `json:"ring_overwritten"`
	SinkDropped     uint64 `json:"sink_dropped"`
}

// ResponseReport summarises hungry→eating latencies (Definition 1).
// Sketch is the full latency distribution as a mergeable quantile
// sketch: pooling reports across runs (or shards of one run) is a
// bucket-count addition with no loss of accuracy.
type ResponseReport struct {
	Count  int                    `json:"count"`
	MeanUS int64                  `json:"mean_us"`
	P50US  int64                  `json:"p50_us"`
	P95US  int64                  `json:"p95_us"`
	MaxUS  int64                  `json:"max_us"`
	Sketch metrics.SketchSnapshot `json:"sketch"`
}

// MessageReport summarises protocol traffic with per-type accounting.
type MessageReport struct {
	Sent      uint64 `json:"sent"`
	Delivered uint64 `json:"delivered"`
	Dropped   uint64 `json:"dropped"`
	BytesSent uint64 `json:"bytes_sent"`
	// PerMeal is messages sent per critical-section entry — the
	// paper's natural message-complexity measure.
	PerMeal float64 `json:"per_meal"`
	// ByType breaks traffic down by normalised message type name.
	ByType map[string]MessageTypeReport `json:"by_type"`
}

// MessageTypeReport is the per-message-type slice of a MessageReport.
type MessageTypeReport struct {
	Sent      uint64 `json:"sent"`
	Delivered uint64 `json:"delivered"`
	Dropped   uint64 `json:"dropped,omitempty"`
}

// Report assembles the machine-readable run summary. wall is the measured
// wall-clock duration of the run (pass 0 if unknown). Report finalises
// the span layer, so call it after the run is over.
func (s *Simulation) Report(wall time.Duration) Report {
	res := s.Results()
	reg := s.reg
	st := s.run.Recorder.Stats()

	byType := make(map[string]MessageTypeReport)
	for name, v := range reg.CountersWithPrefix(metrics.PrefixSent) {
		t := byType[name]
		t.Sent = v
		byType[name] = t
	}
	for name, v := range reg.CountersWithPrefix(metrics.PrefixDelivered) {
		t := byType[name]
		t.Delivered = v
		byType[name] = t
	}
	for name, v := range reg.CountersWithPrefix(metrics.PrefixDropped) {
		t := byType[name]
		t.Dropped = v
		byType[name] = t
	}

	starved := res.Starved
	if starved == nil {
		starved = []int{}
	}
	snap := reg.Snapshot()
	s.run.FinalizeSpans()
	spanSum := s.run.Spans.Summary()
	bus := s.run.World.Bus()
	rep := Report{
		Schema:      ReportSchema,
		Algorithm:   string(s.alg),
		Nodes:       s.run.World.N(),
		SimulatedUS: int64(s.run.World.Now()),
		SchedEvents: s.run.World.Processed(),
		Meals:       res.TotalMeals,
		Violations:  res.SafetyViolations,
		Starved:     starved,
		Response: ResponseReport{
			Count:  st.Count,
			MeanUS: int64(st.Mean),
			P50US:  int64(st.P50),
			P95US:  int64(st.P95),
			MaxUS:  int64(st.Max),
			Sketch: s.run.Recorder.Sketch().Snapshot(),
		},
		Messages: MessageReport{
			Sent:      s.run.World.MessagesSent(),
			Delivered: s.run.World.MessagesDelivered(),
			Dropped:   reg.Counter(metrics.CtrDropped),
			BytesSent: reg.Counter(metrics.CtrBytesSent),
			PerMeal:   s.run.MessagesPerMeal(),
			ByType:    byType,
		},
		LinkDelay:       snap.Histograms[metrics.HistLinkDelay],
		LinkDelaySketch: snap.Sketches[metrics.HistLinkDelay],
		Spans:           &spanSum,
		SpanNodes:       s.run.Spans.NodeAggregates(),
		Trace: TraceReport{
			RingOverwritten: bus.Overwritten(),
			SinkDropped:     bus.SinkDropped(),
		},
		Counters: snap.Counters,
	}
	if wall > 0 {
		rep.WallMS = float64(wall.Microseconds()) / 1000
		rep.EventsPerSec = float64(rep.SchedEvents) / wall.Seconds()
	}
	return rep
}

// MetricsSnapshot freezes the run's counter/histogram registry (the
// -stats output).
func (s *Simulation) MetricsSnapshot() metrics.RegistrySnapshot {
	return s.reg.Snapshot()
}

// WriteSpans finalises the span layer (closing attempts still open at
// the current instant) and writes one JSON span object per line —
// schema span.Schema. Call after the run is over.
func (s *Simulation) WriteSpans(w io.Writer) error {
	s.run.FinalizeSpans()
	return s.run.Spans.WriteJSONL(w)
}

// SpanSummary finalises the span layer and returns the attempt/phase
// aggregates and per-crash locality attribution.
func (s *Simulation) SpanSummary() span.Summary {
	s.run.FinalizeSpans()
	return s.run.Spans.Summary()
}

// TraceLoss reports how many events the trace layer lost (ring
// overwrites, failed sink writes).
func (s *Simulation) TraceLoss() TraceReport {
	bus := s.run.World.Bus()
	return TraceReport{RingOverwritten: bus.Overwritten(), SinkDropped: bus.SinkDropped()}
}

// EnableProgress attaches a live-telemetry heartbeat to the run: the
// harness ticks it at virtual-time slice boundaries, so heartbeats
// appear on the configured wall-clock interval while the simulation
// runs. Call before RunFor; call FlushProgress after the run to emit
// the closing record.
func (s *Simulation) EnableProgress(cfg ProgressConfig) {
	s.prog = s.run.AttachProgress(progress.Config{
		Interval: cfg.Every,
		Human:    cfg.Human,
		JSONL:    cfg.JSONL,
		Label:    cfg.Label,
	})
}

// FlushProgress emits the final progress record and reports the first
// heartbeat write error, if any. No-op when EnableProgress was never
// called.
func (s *Simulation) FlushProgress() error {
	if s.prog == nil {
		return nil
	}
	s.prog.Final()
	return s.prog.Err()
}
