package livenet

// The lease-based client API of the lock service: a client acquires its
// node's local critical section with Node.Acquire(ctx), holds the
// returned Lease while working, and Release()s it. The protocol beneath
// is the paper's local mutual exclusion automaton unchanged — Acquire is
// BecomeHungry plus waiting for the eating transition, Release is
// ExitCS — so every guarantee the algorithms prove (local mutual
// exclusion, failure locality) is a guarantee of the service.
//
// Crash-robustness of *clients* (as opposed to nodes, which fail by the
// paper's silent-crash model via CrashAfter) comes from expiry: a lease
// unreleased for LeaseTTL is presumed abandoned, the node is demoted out
// of eating, and its neighbours proceed — no starvation from a dead
// client. The late Release then reports ErrLeaseExpired.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"lme/internal/core"
	"lme/internal/sim"
)

// Node is a client handle on one node of the cluster.
type Node struct {
	c *Cluster
	n *liveNode
}

// Node returns the client handle for node id. Handles are cheap and
// stateless; all state lives in the cluster.
func (c *Cluster) Node(id core.NodeID) *Node {
	return &Node{c: c, n: c.nodes[id]}
}

// pendingAcquire is one in-flight Acquire waiting for the eating
// transition.
type pendingAcquire struct {
	ch        chan *Lease
	start     time.Time
	abandoned bool // set under liveNode.pmu when the waiter gave up
}

// Acquire requests the node's local critical section and blocks until
// the protocol grants it (the node transitions to eating), the context
// is done, or the cluster stops. At most one lease is outstanding per
// node; concurrent Acquire calls on the same node queue.
//
// If ctx expires while the request is already in the protocol's hungry
// pipeline, the grant — whenever it arrives — is released immediately,
// so an abandoned Acquire never wedges the neighbourhood.
func (h *Node) Acquire(ctx context.Context) (*Lease, error) {
	c, n := h.c, h.n
	// One lease at a time per node: take the node's slot.
	select {
	case n.slot <- struct{}{}:
		n.takeSlot()
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-c.stopCh:
		return nil, ErrStopped
	}
	p := &pendingAcquire{ch: make(chan *Lease, 1), start: time.Now()}
	n.pmu.Lock()
	n.pending = p
	n.pmu.Unlock()
	n.post(evAcquire)
	select {
	case l := <-p.ch:
		return l, nil
	case <-ctx.Done():
		h.abandon(p)
		return nil, ctx.Err()
	case <-c.stopCh:
		h.abandon(p)
		return nil, ErrStopped
	}
}

// abandon marks a pending acquire as given up. If the grant already
// raced in, the granted lease is released on the waiter's behalf.
func (h *Node) abandon(p *pendingAcquire) {
	n := h.n
	n.pmu.Lock()
	if n.pending == p {
		p.abandoned = true
		n.pmu.Unlock()
		return
	}
	n.pmu.Unlock()
	// The grant raced in: grantLease already took the pending (with
	// abandoned still false) and will deliver the lease on the buffered
	// channel. Receive it and release on the waiter's behalf.
	l := <-p.ch
	l.Release() //nolint:errcheck // best-effort cleanup of a raced grant
}

// grantLease resolves the node's pending acquire after an eating
// transition. It runs on the node's shard loop (called from onState).
func (c *Cluster) grantLease(n *liveNode) {
	n.pmu.Lock()
	p := n.pending
	if p == nil {
		n.pmu.Unlock()
		return
	}
	n.pending = nil
	if p.abandoned {
		n.pmu.Unlock()
		// The waiter is gone: exit the critical section immediately and
		// free the slot for the next client.
		n.post(evRelease)
		n.freeSlot()
		return
	}
	l := &Lease{c: c, n: n, grantedAt: time.Now()}
	l.timer = time.AfterFunc(c.cfg.LeaseTTL, l.expire)
	n.lease = l
	n.pmu.Unlock()

	latency := time.Since(p.start)
	c.mu.Lock()
	c.acquisitions++
	c.grant.Observe(sim.FromDuration(latency))
	c.mu.Unlock()
	p.ch <- l
}

// Lease is a granted critical-section hold. Exactly one of Release and
// expiry ends it.
type Lease struct {
	c         *Cluster
	n         *liveNode
	grantedAt time.Time
	timer     *time.Timer

	mu    sync.Mutex
	state leaseState
}

type leaseState int

const (
	leaseActive leaseState = iota
	leaseReleased
	leaseExpired
)

// NodeID reports which node the lease is held on.
func (l *Lease) NodeID() core.NodeID { return l.n.id }

// GrantedAt reports when the lease was granted.
func (l *Lease) GrantedAt() time.Time { return l.grantedAt }

// Release exits the critical section and frees the node for the next
// client. A second Release returns ErrLeaseReleased; a Release after the
// TTL demoted the node returns ErrLeaseExpired.
func (l *Lease) Release() error {
	l.mu.Lock()
	switch l.state {
	case leaseReleased:
		l.mu.Unlock()
		return ErrLeaseReleased
	case leaseExpired:
		l.mu.Unlock()
		return ErrLeaseExpired
	}
	l.state = leaseReleased
	l.mu.Unlock()
	l.timer.Stop()
	l.end()
	return nil
}

// expire is the TTL timer callback: the client is presumed crashed, the
// node is demoted out of eating so its neighbours are not starved.
func (l *Lease) expire() {
	l.mu.Lock()
	if l.state != leaseActive {
		l.mu.Unlock()
		return
	}
	l.state = leaseExpired
	l.mu.Unlock()
	c := l.c
	c.mu.Lock()
	c.expired++
	c.mu.Unlock()
	l.end()
}

// end performs the shared release path: ExitCS on the node's shard loop, then
// the slot opens for the next Acquire. The evRelease is queued before
// the slot frees, so a queued client's evAcquire always follows it.
func (l *Lease) end() {
	n := l.n
	n.pmu.Lock()
	n.lease = nil
	n.pmu.Unlock()
	n.post(evRelease)
	n.freeSlot()
}

// String renders the lease for diagnostics.
func (l *Lease) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	state := "active"
	switch l.state {
	case leaseReleased:
		state = "released"
	case leaseExpired:
		state = "expired"
	}
	return fmt.Sprintf("lease{node %d, %s, granted %s ago}", l.n.id, state, time.Since(l.grantedAt).Round(time.Microsecond))
}
