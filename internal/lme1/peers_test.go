package lme1

import "lme/internal/core"

// White-box accessors for the tests that arrange or assert one
// neighbour's slot record by ID.

// flag reports whether neighbour j has flag f set (false for a
// non-neighbour, the way a missing map key read).
func (n *Node) flag(j core.NodeID, f uint8) bool {
	i := n.peers.Find(j)
	return i >= 0 && n.peers.At(i).has(f)
}

// setFlag sets or clears flag f of neighbour j.
func (n *Node) setFlag(j core.NodeID, f uint8, on bool) {
	p := n.peers.At(n.peers.Find(j))
	if on {
		p.flags |= f
	} else {
		p.flags &^= f
	}
}

// colorOf returns neighbour j's known colour; ok is false for ⊥.
func (n *Node) colorOf(j core.NodeID) (c int, ok bool) {
	i := n.peers.Find(j)
	if i < 0 || !n.peers.At(i).has(pColored) {
		return 0, false
	}
	return n.peers.At(i).color, true
}

// setColorOf records colour c for neighbour j.
func (n *Node) setColorOf(j core.NodeID, c int) { n.peers.At(n.peers.Find(j)).setColor(c) }
