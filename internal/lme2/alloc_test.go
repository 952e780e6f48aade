package lme2

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
// hungry → eat → exit cycle — notifications, switches, fork requests,
// grants and want-backs, ExitCS's edge reversal and release of suspended
// requests — allocates nothing.
func TestSteadyStateCycleDoesNotAllocate(t *testing.T) {
	env := &countEnv{id: 4, nbrs: []core.NodeID{0, 1, 2, 3, 5, 6, 7, 8}}
	n := New()
	n.Init(env)
	var (
		fork     core.Message = msgFork{}
		wantBack core.Message = msgFork{Flag: true}
		req      core.Message = msgReq{}
		notify   core.Message = msgNotification{}
		swtch    core.Message = msgSwitch{}
	)
	meals := 0
	cycle := func() {
		// Thinking and below every neighbour: their notifications change
		// nothing.
		for _, j := range env.nbrs {
			n.OnMessage(j, notify)
		}
		// Forkless and hungry; half the neighbours lower themselves, then
		// the forks arrive (the last a want-back grant, suspended until
		// exit).
		n.BecomeHungry()
		for _, j := range env.nbrs[:4] {
			n.OnMessage(j, swtch)
		}
		for _, j := range env.nbrs[:7] {
			n.OnMessage(j, fork)
		}
		n.OnMessage(8, wantBack)
		if n.State() != core.Eating {
			t.Fatalf("state = %v after all eight forks arrived", n.State())
		}
		meals++
		n.OnMessage(1, req) // suspended while eating
		n.ExitCS()          // reverses the four lowered edges, serves 1 and 8
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
