package lme1

import (
	"fmt"
	"strings"

	"lme/internal/doorway"
)

// DebugString renders the node's full protocol state on one line; used by
// failing-test diagnostics and the tracing CLI.
func (n *Node) DebugString() string {
	var b strings.Builder
	fmt.Fprintf(&b, "state=%v ph=%d color=%d recolor=%v via=%v", n.state, n.ph, n.myColor, n.needsRecolor, n.viaRecolor)
	for d := dwIndex(0); d < numDoorways; d++ {
		pos := "out"
		if n.dws[d].Behind() {
			pos = "BEHIND"
		} else if n.dws[d].Entering() {
			pos = "entering"
		}
		fmt.Fprintf(&b, " %v=%s", d, pos)
	}
	fmt.Fprintf(&b, " at={")
	var susp, pend []int
	for i := 0; i < n.peers.Len(); i++ {
		j, p := n.peers.ID(i), n.peers.At(i)
		cs := "⊥"
		if p.has(pColored) {
			cs = fmt.Sprint(p.color)
		}
		fmt.Fprintf(&b, "%d(c=%s,fork=%v,L=%v) ", j, cs, p.has(pFork), n.dws[sdf].ObservedPos(i) == doorway.Behind)
		if p.has(pSuspended) {
			susp = append(susp, int(j))
		}
		if p.has(pPending) {
			pend = append(pend, int(j))
		}
	}
	fmt.Fprintf(&b, "} S=%v pend=%v recActive=%v", susp, pend, n.rec.active)
	return b.String()
}
