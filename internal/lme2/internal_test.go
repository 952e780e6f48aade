package lme2

import (
	"testing"

	"lme/internal/core"
	"lme/internal/sim"
)

// fakeEnv drives a Node directly for white-box tests.
type fakeEnv struct {
	id        core.NodeID
	neighbors []core.NodeID
	moving    bool
	state     core.State
	sent      []sent
}

type sent struct {
	to  core.NodeID
	msg core.Message
}

var _ core.Env = (*fakeEnv)(nil)

func (e *fakeEnv) ID() core.NodeID          { return e.id }
func (e *fakeEnv) Now() sim.Time            { return 0 }
func (e *fakeEnv) Neighbors() []core.NodeID { return append([]core.NodeID(nil), e.neighbors...) }
func (e *fakeEnv) Moving() bool             { return e.moving }
func (e *fakeEnv) SetState(s core.State)    { e.state = s }
func (e *fakeEnv) Send(to core.NodeID, m core.Message) {
	e.sent = append(e.sent, sent{to: to, msg: m})
}
func (e *fakeEnv) Broadcast(m core.Message) {
	for _, j := range e.neighbors {
		e.Send(j, m)
	}
}

func (e *fakeEnv) countTo(to core.NodeID, match func(core.Message) bool) int {
	n := 0
	for _, s := range e.sent {
		if s.to == to && match(s.msg) {
			n++
		}
	}
	return n
}

func isReq(m core.Message) bool    { _, ok := m.(msgReq); return ok }
func isFork(m core.Message) bool   { _, ok := m.(msgFork); return ok }
func isSwitch(m core.Message) bool { _, ok := m.(msgSwitch); return ok }

func newTestNode(id core.NodeID, neighbors ...core.NodeID) (*Node, *fakeEnv) {
	env := &fakeEnv{id: id, neighbors: neighbors}
	n := New()
	n.Init(env)
	return n, env
}

// TestThinkingNodeAlwaysGrants is the regression test for erratum 1: a
// thinking node holding all its forks must grant a request even when the
// printed guard of Algorithm 6 would suspend it.
func TestThinkingNodeAlwaysGrants(t *testing.T) {
	// Node 1's neighbours are 0 and 2; it holds the fork shared with 2
	// (1 < 2) and, to get all forks, we hand it 0's too.
	n, env := newTestNode(1, 0, 2)
	n.setFlag(0, pFork, true)
	// A hungry neighbour requests; node 1 is thinking with ALL forks:
	// the printed pseudo-code suspends here, which deadlocks the
	// requester forever.
	n.OnMessage(2, msgReq{})
	if got := env.countTo(2, isFork); got != 1 {
		t.Fatalf("thinking node granted %d forks, want 1", got)
	}
	if n.flag(2, pSuspended) {
		t.Fatal("request suspended by a thinking node")
	}
}

// TestSwitchReevaluatesRequests is the regression test for the Algorithm
// 2 analogue of erratum 2: a switch that flips higher[j] while the
// receiver is hungry can newly satisfy all-low-forks, and the missing
// high forks must then be requested.
func TestSwitchReevaluatesRequests(t *testing.T) {
	// Node 1 with neighbours 0 and 2. Initially higher[2]=true (2 has
	// priority) and node 1 misses 2's fork; higher[0]=false and node 1
	// misses 0's fork too (hand-arranged).
	n, env := newTestNode(1, 0, 2)
	n.setFlag(2, pFork, false)
	n.setFlag(0, pFork, false)
	n.setFlag(0, pHigher, false)
	n.BecomeHungry()
	// all-low is false (missing low fork from 2), so no high request to
	// 0 was sent yet beyond the initial low request to 2.
	if got := env.countTo(2, isReq); got != 1 {
		t.Fatalf("requests to 2: %d, want 1 (low fork)", got)
	}
	reqsTo0 := env.countTo(0, isReq)
	// Node 2 lowers itself: its fork is now a high fork, all-low-forks
	// becomes vacuously true, so the node must (re)request its missing
	// high forks — including 0's.
	n.OnMessage(2, msgSwitch{})
	if n.flag(2, pHigher) {
		t.Fatal("switch did not flip higher[2]")
	}
	if got := env.countTo(0, isReq); got <= reqsTo0 {
		t.Fatal("no high-fork re-request after the switch flipped classifications")
	}
}

func TestBecomeHungryNotifies(t *testing.T) {
	n, env := newTestNode(1, 0, 2)
	n.BecomeHungry()
	notifs := 0
	for _, s := range env.sent {
		if _, ok := s.msg.(msgNotification); ok {
			notifs++
		}
	}
	if notifs != 2 {
		t.Fatalf("broadcast %d notifications, want 2", notifs)
	}
	if n.State() != core.Hungry {
		t.Fatalf("state = %v", n.State())
	}
}

func TestNoNotifyConfigSkipsNotifications(t *testing.T) {
	env := &fakeEnv{id: 1, neighbors: []core.NodeID{0, 2}}
	n := NewWithConfig(Config{Notify: false})
	n.Init(env)
	n.BecomeHungry()
	for _, s := range env.sent {
		if _, ok := s.msg.(msgNotification); ok {
			t.Fatal("NoNotify node sent a notification")
		}
	}
}

func TestNotificationOnlyAffectsThinkingWithPriority(t *testing.T) {
	// Node 1 has priority over 0 (higher[0]=false) and not over 2.
	n, env := newTestNode(1, 0, 2)
	if n.Higher(0) {
		t.Fatal("unexpected initial priority")
	}
	// Notification from 0 (over whom we have priority) while thinking:
	// we reverse ALL our edges.
	n.OnMessage(0, msgNotification{})
	if !n.Higher(0) {
		t.Fatal("edge to 0 not reversed")
	}
	if got := env.countTo(0, isSwitch); got != 1 {
		t.Fatalf("switches to 0: %d, want 1", got)
	}
	// Notification from 2 (who already has priority): nothing happens.
	sentBefore := len(env.sent)
	n.OnMessage(2, msgNotification{})
	if len(env.sent) != sentBefore {
		t.Fatal("notification from higher-priority neighbour caused traffic")
	}
	// Notification while hungry: ignored.
	n.BecomeHungry()
	sentBefore = len(env.sent)
	n.OnMessage(0, msgNotification{})
	if len(env.sent) != sentBefore {
		t.Fatal("hungry node reacted to a notification")
	}
}

func TestExitCSReversesAndFlushes(t *testing.T) {
	n, env := newTestNode(1, 0, 2)
	n.setFlag(0, pFork, true) // all forks in hand
	n.BecomeHungry()
	if n.State() != core.Eating {
		t.Fatalf("state = %v, want eating", n.State())
	}
	// A request arrives mid-CS: suspended.
	n.OnMessage(2, msgReq{})
	if !n.flag(2, pSuspended) {
		t.Fatal("mid-CS request not suspended")
	}
	n.ExitCS()
	if n.State() != core.Thinking {
		t.Fatalf("state = %v", n.State())
	}
	if got := env.countTo(2, isFork); got != 1 {
		t.Fatalf("suspended request not served at exit (forks to 2: %d)", got)
	}
	// Every edge reversed: both neighbours now have priority.
	if !n.Higher(0) || !n.Higher(2) {
		t.Fatal("edges not reversed at exit")
	}
}

func TestLinkUpStaticOwnsForkAndPriority(t *testing.T) {
	n, _ := newTestNode(1, 0)
	n.OnLinkUp(7, false)
	if !n.HasFork(7) {
		t.Fatal("static side does not own the new fork")
	}
	if n.Higher(7) {
		t.Fatal("static side ceded priority to the mover")
	}
}

func TestLinkUpMovingYieldsAndDemotes(t *testing.T) {
	n, env := newTestNode(1, 0)
	n.setFlag(0, pFork, true)
	n.BecomeHungry() // eats: has all forks
	if n.State() != core.Eating {
		t.Fatalf("state = %v", n.State())
	}
	env.moving = true
	n.OnLinkUp(7, true)
	if n.State() != core.Hungry {
		t.Fatalf("eating mover not demoted: %v", n.State())
	}
	if n.HasFork(7) || !n.Higher(7) {
		t.Fatal("mover's view of the new link wrong")
	}
	// Its pre-existing priority edges were reversed.
	if !n.Higher(0) {
		t.Fatal("old edge not reversed on move")
	}
}

func TestLinkDownReevaluatesProgress(t *testing.T) {
	n, _ := newTestNode(1, 0, 2)
	n.setFlag(0, pFork, true)  // 0's fork in hand…
	n.setFlag(2, pFork, false) // …but 2 holds the shared fork
	n.BecomeHungry()
	if n.State() != core.Hungry {
		t.Fatalf("state = %v", n.State())
	}
	// The holder of the last missing fork departs: we must eat.
	n.OnLinkDown(2)
	if n.State() != core.Eating {
		t.Fatalf("state = %v after losing the blocking edge, want eating", n.State())
	}
}

func TestStaleRequestDropped(t *testing.T) {
	n, env := newTestNode(1, 2)
	n.setFlag(2, pFork, false) // fork in transit to 2
	n.OnMessage(2, msgReq{})
	if len(env.sent) != 0 || n.flag(2, pSuspended) {
		t.Fatal("request against an absent fork was not dropped")
	}
}

func TestForkWithFlagReturnedWhenNotAllLow(t *testing.T) {
	// Node 2's neighbours: 1 and 3. Arrange a missing LOW fork from 1
	// (so all-low-forks is false) and a missing fork from 3.
	n, env := newTestNode(2, 1, 3)
	n.setFlag(1, pHigher, true)
	n.setFlag(1, pFork, false)
	n.setFlag(3, pFork, false)
	n.BecomeHungry()
	// A flagged fork arrives from 3 while all-low is still false: it
	// must bounce straight back (Line 21's else branch).
	n.OnMessage(3, msgFork{Flag: true})
	if got := env.countTo(3, isFork); got != 1 {
		t.Fatalf("flagged fork not returned (forks to 3: %d)", got)
	}
	if n.HasFork(3) {
		t.Fatal("kept the flagged fork without all-low-forks")
	}
}

func TestThinkingForkWithFlagBounces(t *testing.T) {
	n, env := newTestNode(2, 1)
	n.setFlag(1, pFork, false)
	n.OnMessage(1, msgFork{Flag: true})
	if got := env.countTo(1, isFork); got != 1 {
		t.Fatalf("thinking node kept a flagged fork (forks back: %d)", got)
	}
}

func TestMessageFromNonNeighborIgnored(t *testing.T) {
	n, env := newTestNode(1, 2)
	n.OnMessage(9, msgReq{})
	n.OnMessage(9, msgFork{})
	n.OnMessage(9, msgNotification{})
	if len(env.sent) != 0 {
		t.Fatal("reacted to a message from a non-neighbour")
	}
	if n.HasFork(9) {
		t.Fatal("accepted a fork from a non-neighbour")
	}
}

// setFlag sets or clears flag f of neighbour j (white-box arrangement).
func (n *Node) setFlag(j core.NodeID, f peer, on bool) {
	p := n.peers.At(n.peers.Find(j))
	if on {
		*p |= f
	} else {
		*p &^= f
	}
}
