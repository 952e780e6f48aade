package baseline

import (
	"testing"

	"lme/internal/core"
	"lme/internal/sim"
)

// fakeEnv drives a protocol directly for white-box tests.
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

func (e *fakeEnv) forksTo(to core.NodeID) int {
	n := 0
	for _, s := range e.sent {
		if s.to == to {
			if _, ok := s.msg.(cmFork); ok {
				n++
			}
		}
	}
	return n
}

func newCMNode(id core.NodeID, neighbors ...core.NodeID) (*ChandyMisra, *fakeEnv) {
	env := &fakeEnv{id: id, neighbors: neighbors}
	n := NewChandyMisra()
	n.Init(env)
	return n, env
}

func TestCMInitialHygiene(t *testing.T) {
	n, _ := newCMNode(1, 0, 2)
	// Smaller ID holds a dirty fork; the other side holds the token.
	if n.flag(0, cmHolds) || !n.flag(2, cmHolds) {
		t.Fatal("initial forks wrong")
	}
	if !n.flag(2, cmDirty) {
		t.Fatal("initial fork not dirty")
	}
	if !n.flag(0, cmToken) || n.flag(2, cmToken) {
		t.Fatal("initial tokens wrong")
	}
}

func TestCMThinkingYieldsDirtyFork(t *testing.T) {
	n, env := newCMNode(1, 2)
	n.OnMessage(2, cmReq{})
	if env.forksTo(2) != 1 {
		t.Fatal("thinking node kept a requested dirty fork")
	}
	if n.flag(2, cmHolds) || n.flag(2, cmDirty) {
		t.Fatal("fork state not cleared after yield")
	}
}

func TestCMHungryKeepsCleanFork(t *testing.T) {
	// Node 2 misses forks from 0 and 1 and holds a dirty fork shared
	// with 3, so it stays hungry after the first fork arrives.
	n, env := newCMNode(2, 0, 1, 3)
	n.BecomeHungry() // requests 0's and 1's forks
	n.OnMessage(0, cmFork{})
	if n.State() != core.Hungry {
		t.Fatalf("state = %v, want hungry (still missing 1's fork)", n.State())
	}
	// 0 requests it back while we are hungry and it is clean: keep it.
	n.OnMessage(0, cmReq{})
	if env.forksTo(0) != 0 {
		t.Fatal("hungry node yielded a clean fork")
	}
	// But the dirty fork shared with 3 is yielded even while hungry —
	// and immediately re-requested.
	n.OnMessage(3, cmReq{})
	if env.forksTo(3) != 1 {
		t.Fatal("hungry node kept a requested dirty fork")
	}
	reqs := 0
	for _, s := range env.sent {
		if s.to == 3 {
			if _, ok := s.msg.(cmReq); ok {
				reqs++
			}
		}
	}
	if reqs != 1 {
		t.Fatalf("dirty yield not followed by a re-request (reqs to 3: %d)", reqs)
	}
}

func TestCMEatingDefersAllRequests(t *testing.T) {
	n, env := newCMNode(0, 1) // node 0 holds the single fork
	n.BecomeHungry()
	if n.State() != core.Eating {
		t.Fatalf("state = %v", n.State())
	}
	n.OnMessage(1, cmReq{})
	if env.forksTo(1) != 0 {
		t.Fatal("eating node yielded its fork")
	}
	n.ExitCS()
	if env.forksTo(1) != 1 {
		t.Fatal("deferred request not served at exit")
	}
}

func TestCMEatingDirtiesForks(t *testing.T) {
	n, _ := newCMNode(0, 1, 2)
	n.BecomeHungry()
	if n.State() != core.Eating {
		t.Fatalf("state = %v", n.State())
	}
	n.ExitCS()
	if !n.flag(1, cmDirty) || !n.flag(2, cmDirty) {
		t.Fatal("forks not dirtied by eating")
	}
}

func TestCMLinkChurn(t *testing.T) {
	n, env := newCMNode(1, 0)
	// Static side of a new link: fork arrives dirty with no token.
	n.OnLinkUp(5, false)
	if !n.flag(5, cmHolds) || !n.flag(5, cmDirty) || n.flag(5, cmToken) {
		t.Fatal("static link-up state wrong")
	}
	// Moving side: token, no fork; an eating mover demotes.
	*n.peers.At(n.peers.Find(0)) |= cmHolds
	n.BecomeHungry()
	if n.State() != core.Eating {
		t.Fatalf("state = %v", n.State())
	}
	n.OnLinkUp(7, true)
	if n.State() != core.Hungry {
		t.Fatal("eating mover not demoted")
	}
	if n.flag(7, cmHolds) {
		t.Fatal("mover owns the new fork")
	}
	// The demoted mover immediately spends its request token on the
	// missing fork.
	reqsTo7 := 0
	for _, s := range env.sent {
		if s.to == 7 {
			if _, ok := s.msg.(cmReq); ok {
				reqsTo7++
			}
		}
	}
	if n.flag(7, cmToken) || reqsTo7 != 1 {
		t.Fatalf("moving link-up state wrong (token=%v reqs=%d)", n.flag(7, cmToken), reqsTo7)
	}
	// Link loss erases all edge state and may unblock.
	n.OnLinkDown(7)
	if n.peers.Find(7) >= 0 {
		t.Fatal("fork state survived link loss")
	}
	if n.State() != core.Eating {
		t.Fatalf("state = %v after losing the only missing fork", n.State())
	}
}

func TestCMRequestWithoutTokenIgnored(t *testing.T) {
	n, env := newCMNode(1, 2)
	// Receiving a request installs the token; a duplicate yield must
	// not occur once the fork is gone.
	n.OnMessage(2, cmReq{})
	n.OnMessage(2, cmReq{})
	if env.forksTo(2) != 1 {
		t.Fatalf("yielded %d forks for duplicate requests", env.forksTo(2))
	}
}
