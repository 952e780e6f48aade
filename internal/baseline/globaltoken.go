package baseline

import (
	"sort"

	"lme/internal/core"
	"lme/internal/graph"
)

// tokenReq asks the token-holder side of the tree for the privilege.
type tokenReq struct{}

// tokenGrant passes the privilege token.
type tokenGrant struct{}

// GlobalToken is Raymond's tree-based token algorithm for GLOBAL mutual
// exclusion: at most one node in the whole system eats at a time. The
// paper's introduction contrasts local mutual exclusion with exactly this
// class of algorithms (e.g. Walter et al.'s token-based MANET mutex) —
// global exclusion trivially implies local exclusion but forfeits all
// spatial reuse. Experiment E11 measures that locality dividend.
//
// The privilege token starts at the tree root (node 0); each node keeps a
// pointer toward the token along a BFS spanning tree of the initial
// communication graph. Like the Choy–Singh baseline this is a static-only
// comparator: topology changes are not supported.
type GlobalToken struct {
	env core.Env

	state core.State

	// holder points toward the token: self when held locally.
	holder core.NodeID
	// treeNbrs are this node's spanning-tree neighbours.
	treeNbrs []core.NodeID
	// reqQ is the FIFO of pending requesters (tree neighbours or self).
	reqQ []core.NodeID
	// asked dedups requests sent toward the holder.
	asked bool
}

var _ core.Protocol = (*GlobalToken)(nil)

// NewGlobalToken builds the factory for a system over the given static
// communication graph; the spanning tree is a BFS tree rooted at node 0,
// where the token starts.
func NewGlobalToken(g *graph.Graph) func(core.NodeID) core.Protocol {
	parent := bfsParents(g, 0)
	children := make(map[int][]int, g.N())
	for v := 1; v < g.N(); v++ {
		if p := parent[v]; p >= 0 {
			children[p] = append(children[p], v)
		}
	}
	return func(id core.NodeID) core.Protocol {
		v := int(id)
		var nbrs []core.NodeID
		if v != 0 && parent[v] >= 0 {
			nbrs = append(nbrs, core.NodeID(parent[v]))
		}
		for _, c := range children[v] {
			nbrs = append(nbrs, core.NodeID(c))
		}
		sort.Slice(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] })
		holder := id
		if v != 0 {
			holder = core.NodeID(parent[v])
		}
		return &GlobalToken{
			state:    core.Thinking,
			holder:   holder,
			treeNbrs: nbrs,
		}
	}
}

// bfsParents returns the BFS parent of each node (-1 for the root and for
// unreachable nodes).
func bfsParents(g *graph.Graph, root int) []int {
	parent := make([]int, g.N())
	for i := range parent {
		parent[i] = -1
	}
	visited := make([]bool, g.N())
	visited[root] = true
	queue := []int{root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			if !visited[v] {
				visited[v] = true
				parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	return parent
}

// Init implements core.Protocol.
func (n *GlobalToken) Init(env core.Env) { n.env = env }

// State implements core.Protocol.
func (n *GlobalToken) State() core.State { return n.state }

// BecomeHungry implements core.Protocol.
func (n *GlobalToken) BecomeHungry() {
	if n.state != core.Thinking {
		return
	}
	n.setState(core.Hungry)
	n.enqueue(n.env.ID())
	n.assignPrivilege()
	n.makeRequest()
}

// ExitCS implements core.Protocol.
func (n *GlobalToken) ExitCS() {
	if n.state != core.Eating {
		return
	}
	n.setState(core.Thinking)
	n.assignPrivilege()
	n.makeRequest()
}

// OnMessage implements core.Protocol.
func (n *GlobalToken) OnMessage(from core.NodeID, msg core.Message) {
	switch msg.(type) {
	case tokenReq:
		n.enqueue(from)
		n.assignPrivilege()
		n.makeRequest()
	case tokenGrant:
		n.holder = n.env.ID()
		n.asked = false
		n.assignPrivilege()
		n.makeRequest()
	}
}

// OnLinkUp implements core.Protocol (static-only baseline: ignored).
func (n *GlobalToken) OnLinkUp(core.NodeID, bool) {}

// OnLinkDown implements core.Protocol (static-only baseline: ignored).
func (n *GlobalToken) OnLinkDown(core.NodeID) {}

// enqueue adds a requester once.
func (n *GlobalToken) enqueue(id core.NodeID) {
	for _, q := range n.reqQ {
		if q == id {
			return
		}
	}
	n.reqQ = append(n.reqQ, id)
}

// assignPrivilege is Raymond's rule: a holder not in the critical section
// serves the head of its queue — itself (eat) or a subtree (pass the
// token toward it).
func (n *GlobalToken) assignPrivilege() {
	if n.holder != n.env.ID() || n.state == core.Eating || len(n.reqQ) == 0 {
		return
	}
	head := n.reqQ[0]
	n.reqQ = n.reqQ[1:]
	if head == n.env.ID() {
		n.setState(core.Eating)
		return
	}
	n.holder = head
	n.asked = false
	n.env.Send(head, tokenGrant{})
	// Remaining local requests chase the token immediately.
	n.makeRequest()
}

// makeRequest asks the holder side for the token when needed.
func (n *GlobalToken) makeRequest() {
	if n.holder == n.env.ID() || len(n.reqQ) == 0 || n.asked {
		return
	}
	n.asked = true
	n.env.Send(n.holder, tokenReq{})
}

func (n *GlobalToken) setState(s core.State) {
	if n.state == s {
		return
	}
	n.state = s
	n.env.SetState(s)
}
