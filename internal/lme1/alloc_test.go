package lme1

import (
	"testing"

	"lme/internal/core"
	"lme/internal/sim"
)

// countEnv is a core.Env that only counts what the node sends: no
// recording, so every allocation a cycle makes is the node's own.
type countEnv struct {
	id    core.NodeID
	nbrs  []core.NodeID
	sends int
}

func (e *countEnv) ID() core.NodeID                { return e.id }
func (e *countEnv) Now() sim.Time                  { return 0 }
func (e *countEnv) Neighbors() []core.NodeID       { return e.nbrs }
func (e *countEnv) Send(core.NodeID, core.Message) { e.sends++ }
func (e *countEnv) Broadcast(core.Message)         { e.sends += len(e.nbrs) }
func (e *countEnv) Moving() bool                   { return false }
func (e *countEnv) SetState(core.State)            {}

// TestSteadyStateCycleDoesNotAllocate is the allocation gate of the
// neighbour-slot table: on a static node with eight neighbours, a full
// hungry → eat → exit cycle — every doorway crossing and exit, colour
// updates, fork requests, grants and want-backs, ExitCS's recolouring and
// release of suspended requests — allocates nothing.
func TestSteadyStateCycleDoesNotAllocate(t *testing.T) {
	env := &countEnv{id: 4, nbrs: []core.NodeID{0, 1, 2, 3, 5, 6, 7, 8}}
	n := New(Config{})
	n.Init(env)
	// Boxed once: converting a message to core.Message is the sender's
	// allocation, not the handler's.
	var (
		fork     core.Message = msgFork{}
		wantBack core.Message = msgFork{Flag: true}
		req      core.Message = msgReq{}
		colors   [9]core.Message
	)
	for j := range colors {
		colors[j] = msgUpdateColor{Color: j}
	}
	meals := 0
	cycle := func() {
		// Neighbours pass through both fork doorways while the node thinks.
		for _, j := range env.nbrs {
			for _, d := range []dwIndex{adf, sdf} {
				n.OnMessage(j, doorwayMsg(d, true))
			}
			for _, d := range []dwIndex{sdf, adf} {
				n.OnMessage(j, doorwayMsg(d, false))
			}
			n.OnMessage(j, colors[j])
		}
		// Forkless and hungry: cross AD^f and SD^f, collect the low forks,
		// then the high ones (the last a want-back grant, suspended until
		// exit), eat.
		n.BecomeHungry()
		for _, j := range env.nbrs[:7] {
			n.OnMessage(j, fork)
		}
		n.OnMessage(8, wantBack)
		if n.State() != core.Eating {
			t.Fatalf("state = %v after all eight forks arrived", n.State())
		}
		meals++
		n.OnMessage(1, req) // suspended while eating
		n.ExitCS()
		// Thinking again: every neighbour asks for its fork back.
		for _, j := range env.nbrs {
			n.OnMessage(j, req)
		}
	}
	cycle() // from Init's fork placement to the cycle's own steady state
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("steady-state cycle allocates %.1f times, want 0", avg)
	}
	if meals < 100 || env.sends == 0 {
		t.Fatalf("cycle did no work (meals=%d sends=%d)", meals, env.sends)
	}
}
