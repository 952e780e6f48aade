package harness

import (
	"context"
	"fmt"
	"testing"

	"lme/internal/core"
	"lme/internal/manet"
)

// hostContract counts the simulator host's breaches of the protocol
// contract, seen from the protocols' side of every callback:
//   - at a link-up, at least one end is moving;
//   - exactly one end is told iAmMoving, and that end is moving;
//   - no callback reaches a crashed node.
type hostContract struct {
	w        *manet.World
	linkUps  int
	breaches []string
	// half holds the link-ups one live end has heard of, by (low, high)
	// ID, until the other end hears of them too.
	half map[[2]core.NodeID]bool
}

func (c *hostContract) breach(format string, args ...any) {
	c.breaches = append(c.breaches, fmt.Sprintf("%v: ", c.w.Now())+fmt.Sprintf(format, args...))
}

// wrap decorates a protocol factory with the contract's checks.
func (c *hostContract) wrap(inner func(core.NodeID) core.Protocol) func(core.NodeID) core.Protocol {
	return func(id core.NodeID) core.Protocol { return &checkedProtocol{inner(id), id, c} }
}

type checkedProtocol struct {
	core.Protocol
	id core.NodeID
	c  *hostContract
}

func (p *checkedProtocol) alive(callback string) {
	if p.c.w.Crashed(p.id) {
		p.c.breach("%s reached crashed node %d", callback, p.id)
	}
}

func (p *checkedProtocol) OnLinkUp(peer core.NodeID, iAmMoving bool) {
	c, w := p.c, p.c.w
	c.linkUps++
	p.alive("OnLinkUp")
	if !w.Moving(p.id) && !w.Moving(peer) {
		c.breach("link %d–%d came up with neither end moving", p.id, peer)
	}
	if iAmMoving && !w.Moving(p.id) {
		c.breach("static node %d was told it is the moving end of %d–%d", p.id, p.id, peer)
	}
	key := [2]core.NodeID{min(p.id, peer), max(p.id, peer)}
	if other, ok := c.half[key]; ok {
		delete(c.half, key)
		if other == iAmMoving {
			c.breach("both ends of %d–%d were told iAmMoving=%v", p.id, peer, iAmMoving)
		}
	} else if !w.Crashed(peer) { // a crashed end hears nothing
		c.half[key] = iAmMoving
	}
	p.Protocol.OnLinkUp(peer, iAmMoving)
}

func (p *checkedProtocol) OnMessage(from core.NodeID, msg core.Message) {
	p.alive("OnMessage")
	p.Protocol.OnMessage(from, msg)
}

func (p *checkedProtocol) OnLinkDown(peer core.NodeID) {
	p.alive("OnLinkDown")
	p.Protocol.OnLinkDown(peer)
}

func (p *checkedProtocol) BecomeHungry() {
	p.alive("BecomeHungry")
	p.Protocol.BecomeHungry()
}

func (p *checkedProtocol) ExitCS() {
	p.alive("ExitCS")
	p.Protocol.ExitCS()
}

// TestHostContractOnWaypointWorld runs E4's waypoint world, with two
// static nodes crashed mid-run, under the contract decorator: the host
// must breach none of its rules, so the ID tie-break of the moving role
// only ever runs between two genuine movers.
func TestHostContractOnWaypointWorld(t *testing.T) {
	for _, alg := range []string{"alg2", "alg1-linial"} {
		c := &hostContract{half: map[[2]core.NodeID]bool{}}
		sc := e4World(t, alg, 1, 3, 26, 31)
		sc.NewProtocol = c.wrap(factory(alg, sc.Points, sc.Radius))
		sc.Setup = func(r *Run) { c.w = r.World }
		if _, err := sc.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if c.linkUps == 0 {
			t.Fatalf("%s: no link changed; the contract was never exercised", alg)
		}
		for key := range c.half {
			c.breach("link-up %d–%d reached only one live end", key[0], key[1])
		}
		if len(c.breaches) > 0 {
			t.Errorf("%s: %d host-contract breaches, first: %s", alg, len(c.breaches), c.breaches[0])
		}
	}
}
