package doorway_test

import (
	"testing"

	"lme/internal/core"
	"lme/internal/doorway"
	"lme/internal/graph"
	"lme/internal/manet"
	"lme/internal/sim"
)

// dwMsg carries a doorway position announcement.
type dwMsg struct {
	Cross bool
}

// dwProto is a minimal protocol exercising one doorway instance over the
// simulated network: it enters on request, stays behind for holdTime, and
// exits.
type dwProto struct {
	env      core.Env
	nbrs     core.Slots[struct{}] // the neighbour table d's slots follow
	d        *doorway.Doorway
	kind     doorway.Kind
	holdTime sim.Time

	entryAt []sim.Time // when BeginEntry was called
	crossAt []sim.Time
	exitAt  []sim.Time
	pending int // entries requested before Init
}

func (p *dwProto) Init(env core.Env) {
	p.env = env
	p.nbrs.Reset(env.Neighbors())
	p.d = doorway.New(p.kind, p.nbrs.Len(),
		func(cross bool) { env.Broadcast(dwMsg{Cross: cross}) },
		p.onCross)
}

func (p *dwProto) onCross() {
	p.crossAt = append(p.crossAt, p.env.Now())
}

func (p *dwProto) enter() {
	p.entryAt = append(p.entryAt, p.env.Now())
	p.d.BeginEntry()
}

func (p *dwProto) exit() {
	p.exitAt = append(p.exitAt, p.env.Now())
	p.d.Exit()
}

func (p *dwProto) OnMessage(from core.NodeID, msg core.Message) {
	m, ok := msg.(dwMsg)
	if !ok {
		return
	}
	pos := doorway.Outside
	if m.Cross {
		pos = doorway.Behind
	}
	if i := p.nbrs.Find(from); i >= 0 {
		p.d.Observe(i, pos)
	}
}

func (p *dwProto) OnLinkUp(peer core.NodeID, iAmMoving bool) {
	if i, fresh := p.nbrs.Insert(peer); fresh {
		p.d.Add(i, doorway.Outside)
	}
}

func (p *dwProto) OnLinkDown(peer core.NodeID) {
	if i, _ := p.nbrs.Remove(peer); i >= 0 {
		p.d.Forget(i)
	}
}

func (p *dwProto) BecomeHungry()     {}
func (p *dwProto) ExitCS()           {}
func (p *dwProto) State() core.State { return core.Thinking }

// buildClique wires n mutually-adjacent dwProto nodes.
func buildClique(t *testing.T, n int, kind doorway.Kind) (*manet.World, []*dwProto) {
	t.Helper()
	cfg := manet.DefaultConfig()
	cfg.Radius = 10 // everyone adjacent
	w := manet.NewWorld(cfg)
	protos := make([]*dwProto, n)
	for i := 0; i < n; i++ {
		id := w.AddNode(graph.Point{X: float64(i) * 0.01})
		protos[i] = &dwProto{kind: kind}
		w.SetProtocol(id, protos[i])
	}
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	return w, protos
}

// TestDoorwayGuarantee checks the doorway property over the lossy-free
// network: node A crosses at ~0; node B begins its entry well after A's
// cross message arrived; then B must not cross until A exits.
func TestDoorwayGuarantee(t *testing.T) {
	for _, kind := range []doorway.Kind{doorway.Synchronous, doorway.Asynchronous} {
		t.Run(kind.String(), func(t *testing.T) {
			w, protos := buildClique(t, 2, kind)
			w.At(0, func() { protos[0].enter() })
			w.At(50_000, func() { protos[1].enter() }) // after ν=10ms
			w.At(100_000, func() { protos[0].exit() })
			if err := w.RunUntil(300_000, 0); err != nil {
				t.Fatal(err)
			}
			if len(protos[0].crossAt) != 1 || protos[0].crossAt[0] != 0 {
				t.Fatalf("A crossings = %v", protos[0].crossAt)
			}
			if len(protos[1].crossAt) != 1 {
				t.Fatalf("B crossings = %v", protos[1].crossAt)
			}
			if got := protos[1].crossAt[0]; got < 100_000 {
				t.Fatalf("B crossed at %v, before A exited at 100ms", got)
			}
		})
	}
}

// TestDoorwayContention runs five nodes through repeated enter/hold/exit
// cycles and checks that every node keeps making progress (the asynchronous
// doorway's purpose) and that the precedence property holds pairwise.
func TestDoorwayContention(t *testing.T) {
	const (
		nodes  = 5
		rounds = 4
		hold   = sim.Time(30_000)
		gap    = sim.Time(5_000)
	)
	w, protos := buildClique(t, nodes, doorway.Asynchronous)
	var cycle func(p *dwProto, round int)
	cycle = func(p *dwProto, round int) {
		if round >= rounds {
			return
		}
		p.enter()
		var waitExit func()
		waitExit = func() {
			if p.d.Behind() {
				p.exit()
				w.At(w.Now()+gap, func() { cycle(p, round+1) })
				return
			}
			w.At(w.Now()+1_000, waitExit)
		}
		w.At(w.Now()+hold, waitExit)
	}
	for i, p := range protos {
		p := p
		w.At(sim.Time(i)*1_000, func() { cycle(p, 0) })
	}
	if err := w.RunUntil(60_000_000, 0); err != nil {
		t.Fatal(err)
	}
	for i, p := range protos {
		if len(p.crossAt) != rounds {
			t.Fatalf("node %d crossed %d times, want %d (starved?)", i, len(p.crossAt), rounds)
		}
	}
	// Pairwise precedence: if j began an entry more than ν after i
	// crossed, and i was still behind, then j's crossing is not before
	// i's exit.
	nu := sim.Time(w.Config().MaxDelay)
	for i, pi := range protos {
		for j, pj := range protos {
			if i == j {
				continue
			}
			for c := range pi.crossAt {
				ci, xi := pi.crossAt[c], pi.exitAt[c]
				for e := range pj.entryAt {
					if pj.entryAt[e] <= ci+nu || pj.entryAt[e] >= xi {
						continue
					}
					if e < len(pj.crossAt) && pj.crossAt[e] < xi {
						t.Fatalf("doorway violated: %d crossed at %v during [%v,%v] of %d (entered %v)",
							j, pj.crossAt[e], ci, xi, i, pj.entryAt[e])
					}
				}
			}
		}
	}
}

// TestDoorwayForgetOnMobility: a blocking neighbour that moves away
// unblocks the entrant through the LinkDown → Forget path.
func TestDoorwayForgetOnMobility(t *testing.T) {
	cfg := manet.DefaultConfig()
	cfg.Radius = 0.2
	w := manet.NewWorld(cfg)
	protos := make([]*dwProto, 2)
	for i := range protos {
		protos[i] = &dwProto{kind: doorway.Synchronous}
		w.SetProtocol(w.AddNode(graph.Point{X: float64(i) * 0.1}), protos[i])
	}
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	w.At(0, func() { protos[0].enter() })             // crosses immediately
	w.At(50_000, func() { protos[1].enter() })        // blocked by node 0
	w.JumpAt(0, graph.Point{X: 0.9}, 10_000, 100_000) // node 0 departs
	if err := w.RunUntil(300_000, 0); err != nil {
		t.Fatal(err)
	}
	if len(protos[1].crossAt) != 1 {
		t.Fatalf("node 1 crossings = %v", protos[1].crossAt)
	}
	if got := protos[1].crossAt[0]; got < 100_000 {
		t.Fatalf("node 1 crossed at %v before the blocker left", got)
	}
}
