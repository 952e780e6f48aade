// Package microbench holds the substrate microbenchmark bodies shared by
// the `go test -bench` wrappers in internal/sim and internal/manet and by
// `lmebench -micro`, which runs them programmatically via
// testing.Benchmark and emits machine-readable results (BENCH_micro.json).
// Keeping the bodies in a plain (non-test) package is what lets the same
// code serve both entry points.
//
// The three benchmarks cover the hot paths every experiment funnels
// through: scheduler push/pop churn, the mobility link-maintenance sweep,
// and neighbourhood broadcast fan-out.
package microbench

import (
	"testing"

	"lme/internal/core"
	"lme/internal/graph"
	"lme/internal/manet"
	"lme/internal/sim"
)

// Benchmark is one named microbenchmark.
type Benchmark struct {
	Name string
	Fn   func(b *testing.B)
}

// All lists the substrate and observability microbenchmarks in reporting
// order.
func All() []Benchmark {
	return []Benchmark{
		{Name: "SchedulerChurn", Fn: SchedulerChurn},
		{Name: "MobilitySweep", Fn: MobilitySweep},
		{Name: "BroadcastFanout", Fn: BroadcastFanout},
		{Name: "NeighborsView", Fn: NeighborsView},
		{Name: "HandlerLME1", Fn: HandlerLME1},
		{Name: "HandlerLME2", Fn: HandlerLME2},
		{Name: "TraceSinkThroughput", Fn: TraceSinkThroughput},
		{Name: "PublishFanout", Fn: PublishFanout},
		{Name: "SpanFold", Fn: SpanFold},
		{Name: "SpanFoldStreaming", Fn: SpanFoldStreaming},
		{Name: "MemorySteady", Fn: MemorySteady},
		{Name: "EndToEndDark", Fn: EndToEndDark},
		{Name: "EndToEndObserved", Fn: EndToEndObserved},
		{Name: "ScaleSweep1k", Fn: ScaleSweep1k},
		{Name: "ScaleSweep1kSharded", Fn: ScaleSweep1kSharded},
		{Name: "ScaleSweep10k", Fn: ScaleSweep10k},
		{Name: "ScaleSweep10kSharded", Fn: ScaleSweep10kSharded},
		{Name: "ShardBarrier", Fn: ShardBarrier},
		{Name: "TelemetryFold", Fn: TelemetryFold},
		{Name: "ShardedChurn", Fn: ShardedChurn},
		{Name: "WireEncode", Fn: WireEncode},
		{Name: "WireDecode", Fn: WireDecode},
		{Name: "WireEncodeGob", Fn: WireEncodeGob},
		{Name: "WireDecodeGob", Fn: WireDecodeGob},
		{Name: "DatagramCoalesce", Fn: DatagramCoalesce},
		{Name: "UDPAcquireRelease", Fn: UDPAcquireRelease},
		{Name: "UDPAcquireReleaseGob", Fn: UDPAcquireReleaseGob},
	}
}

// SchedulerChurn measures steady-state timer churn: a standing population
// of pending events where every executed event schedules a successor at a
// pseudo-random future instant. One op = one event executed (pop + push).
func SchedulerChurn(b *testing.B) {
	s := sim.NewScheduler(42)
	var fire func()
	fire = func() { s.After(sim.Time(1+s.Rand().Int64N(1_000)), fire) }
	const standing = 512
	for i := 0; i < standing; i++ {
		s.At(sim.Time(i), fire)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// nullProto is a protocol that observes everything and does nothing; it
// keeps the benchmarks focused on the substrate rather than any algorithm.
type nullProto struct {
	env core.Env
}

func (p *nullProto) Init(env core.Env)                   { p.env = env }
func (p *nullProto) OnMessage(core.NodeID, core.Message) {}
func (p *nullProto) OnLinkUp(core.NodeID, bool)          {}
func (p *nullProto) OnLinkDown(core.NodeID)              {}
func (p *nullProto) BecomeHungry()                       {}
func (p *nullProto) ExitCS()                             {}
func (p *nullProto) State() core.State                   { return core.Thinking }

// mobilityWorld builds the MobilitySweep scenario: n nodes on a jittered
// lattice over the unit square, a quarter of them roaming under the
// random-waypoint model.
func mobilityWorld(n int, seed uint64) *manet.World {
	cfg := manet.DefaultConfig()
	cfg.Seed = seed
	cfg.Radius = 0.12
	w := manet.NewWorld(cfg)
	side := 1
	for side*side < n {
		side++
	}
	r := sim.NewScheduler(seed ^ 0xbeef).Rand() // position jitter stream
	for i := 0; i < n; i++ {
		x := (float64(i%side) + 0.2 + 0.6*r.Float64()) / float64(side)
		y := (float64(i/side) + 0.2 + 0.6*r.Float64()) / float64(side)
		id := w.AddNode(graph.Point{X: x, Y: y})
		w.SetProtocol(id, &nullProto{})
	}
	return w
}

// MobilitySweep measures the link-maintenance hot path: a 96-node world
// with 24 random-waypoint movers. One op = 100ms of virtual time (five
// mobility ticks per mover plus the induced link churn).
func MobilitySweep(b *testing.B) {
	w := mobilityWorld(96, 7)
	if err := w.Start(); err != nil {
		b.Fatal(err)
	}
	movers := make([]core.NodeID, 0, 24)
	for i := 0; i < 24; i++ {
		movers = append(movers, core.NodeID(i*4))
	}
	manet.Waypoint{Speed: 0.4, PauseMin: 1_000, PauseMax: 10_000}.Attach(w, movers)
	const chunk = sim.Time(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Scheduler().RunUntil(w.Scheduler().Now()+chunk, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BroadcastFanout measures neighbour iteration plus the per-message send
// path: one broadcast from the centre of a 64-node near-clique, drained to
// completion. One op = one broadcast (63 sends and deliveries).
func BroadcastFanout(b *testing.B) {
	cfg := manet.DefaultConfig()
	cfg.Seed = 11
	cfg.Radius = 0.5
	w := manet.NewWorld(cfg)
	protos := make([]*nullProto, 64)
	r := sim.NewScheduler(99).Rand()
	for i := range protos {
		protos[i] = &nullProto{}
		id := w.AddNode(graph.Point{X: 0.4 + 0.2*r.Float64(), Y: 0.4 + 0.2*r.Float64()})
		w.SetProtocol(id, protos[i])
	}
	if err := w.Start(); err != nil {
		b.Fatal(err)
	}
	var payload struct{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		protos[0].env.Broadcast(payload)
		if err := w.Scheduler().Run(0); err != nil {
			b.Fatal(err)
		}
	}
}

// NeighborsView measures the adjacency read path protocols sit on inside
// every recolouring round: Neighbors() for each node of a static world.
func NeighborsView(b *testing.B) {
	w := mobilityWorld(96, 13)
	if err := w.Start(); err != nil {
		b.Fatal(err)
	}
	n := w.N()
	sum := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for id := 0; id < n; id++ {
			sum += len(w.Neighbors(core.NodeID(id)))
		}
	}
	if sum < 0 {
		b.Fatal("unreachable")
	}
}
