package manet

import (
	"testing"

	"lme/internal/core"
	"lme/internal/graph"
	"lme/internal/sim"
)

// TestBroadcastDoesNotAllocate: one broadcast from the centre of a
// 64-node near-clique, drained to completion — neighbour iteration, 63
// sends and 63 deliveries through the pooled delivery records — allocates
// nothing.
func TestBroadcastDoesNotAllocate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 11
	cfg.Radius = 0.5
	w := NewWorld(cfg)
	protos := make([]*chatter, 64)
	r := sim.NewScheduler(99).Rand()
	for i := range protos {
		protos[i] = &chatter{}
		id := w.AddNode(graph.Point{X: 0.4 + 0.2*r.Float64(), Y: 0.4 + 0.2*r.Float64()})
		w.SetProtocol(id, protos[i])
	}
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	var payload struct{}
	broadcast := func() {
		protos[0].env.Broadcast(payload)
		if err := w.Run(0); err != nil {
			t.Fatal(err)
		}
	}
	broadcast() // grow the delivery pool
	if avg := testing.AllocsPerRun(100, broadcast); avg != 0 {
		t.Fatalf("a drained broadcast allocates %.2f times", avg)
	}
	if got := w.MessagesDelivered(); got < 63*101 {
		t.Fatalf("%d deliveries, want at least %d", got, 63*101)
	}
}

// TestNeighborsDoesNotAllocate: Neighbors is a read-only view, not a
// copy — the adjacency read protocols sit on in every recolouring round.
func TestNeighborsDoesNotAllocate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Radius = 0.12
	w := NewWorld(cfg)
	r := sim.NewScheduler(13).Rand()
	const side = 10
	for i := 0; i < side*side; i++ {
		x := (float64(i%side) + 0.2 + 0.6*r.Float64()) / side
		y := (float64(i/side) + 0.2 + 0.6*r.Float64()) / side
		w.SetProtocol(w.AddNode(graph.Point{X: x, Y: y}), &chatter{})
	}
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	sum := 0
	if avg := testing.AllocsPerRun(100, func() {
		for id := 0; id < w.N(); id++ {
			sum += len(w.Neighbors(core.NodeID(id)))
		}
	}); avg != 0 {
		t.Fatalf("Neighbors over every node allocates %.2f times", avg)
	}
	if sum == 0 {
		t.Fatal("the world has no links")
	}
}
