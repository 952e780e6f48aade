package harness

import (
	"lme/internal/core"
	"lme/internal/doorway"
	"lme/internal/manet"
	"lme/internal/metrics"
	"lme/internal/sim"
)

// probeMsg announces a doorway position change for the probe protocol.
type probeMsg struct {
	Sync  bool
	Cross bool
}

// probeProto exercises a bare double doorway (an asynchronous doorway
// enclosing a synchronous one, Figure 3) with no module behind it —
// experiment E7's instrument for Lemma 1's O(δT) traversal bound.
type probeProto struct {
	env core.Env
	dd  *doorway.Double

	entryAt sim.Time
	waiting bool
	lat     *metrics.Sketch // shared traversal-latency sketch, streamed
	crossed func()          // notifies the external driver
}

var _ core.Protocol = (*probeProto)(nil)

func (p *probeProto) Init(env core.Env) {
	p.env = env
	p.dd = doorway.NewDouble(env.Neighbors(),
		func(inner, cross bool) { env.Broadcast(probeMsg{Sync: inner, Cross: cross}) },
		func() {
			if p.waiting {
				p.waiting = false
				p.lat.Observe(p.env.Now() - p.entryAt)
			}
			if p.crossed != nil {
				p.crossed()
			}
		})
}

// enter starts the double-doorway entry code.
func (p *probeProto) enter() {
	p.entryAt = p.env.Now()
	p.waiting = true
	p.dd.BeginEntry()
}

// leave runs the double-doorway exit code.
func (p *probeProto) leave() { p.dd.Exit() }

func (p *probeProto) OnMessage(from core.NodeID, msg core.Message) {
	m, ok := msg.(probeMsg)
	if !ok {
		return
	}
	pos := doorway.Outside
	if m.Cross {
		pos = doorway.Behind
	}
	p.dd.Observe(from, m.Sync, pos)
}

func (p *probeProto) OnLinkUp(peer core.NodeID, iAmMoving bool) {
	p.dd.AddNeighbor(peer, doorway.Outside, doorway.Outside)
}

func (p *probeProto) OnLinkDown(peer core.NodeID) {
	p.dd.Forget(peer)
}

func (p *probeProto) BecomeHungry()     {}
func (p *probeProto) ExitCS()           {}
func (p *probeProto) State() core.State { return core.Thinking }

// doorwayProbe runs n mutually-adjacent probes that repeatedly enter the
// double doorway, hold it for hold time units, and exit; it returns the
// traversal latency statistics. seed drives the link-delay draws. All
// probes stream into one shared sketch (the world is single-threaded),
// so aggregation is O(buckets) — no per-sample slices.
func doorwayProbe(n int, hold, horizon sim.Time, seed uint64) (metrics.Stats, error) {
	cfg := manet.DefaultConfig()
	cfg.Seed = seed
	cfg.Radius = 1.0
	w := manet.NewWorld(cfg)
	lat := metrics.NewSketch()
	probes := make([]*probeProto, n)
	for i := 0; i < n; i++ {
		probes[i] = &probeProto{lat: lat}
		w.SetProtocol(w.AddNode(CliquePoints(n)[i]), probes[i])
	}
	if err := w.Start(); err != nil {
		return metrics.Stats{}, err
	}
	for i, p := range probes {
		p := p
		// On crossing, hold then exit then re-enter after a short gap.
		p.crossed = func() {
			w.At(w.Now()+hold, func() {
				p.leave()
				w.At(w.Now()+2_000, p.enter)
			})
		}
		w.At(sim.Time(i)*500, p.enter)
	}
	if err := w.RunUntil(horizon, 0); err != nil {
		return metrics.Stats{}, err
	}
	return lat.Stats(), nil
}
