package coloring

import (
	"math/bits"
	"slices"

	"lme/internal/core"
)

// FloodRounds runs Algorithm 4 on the communication graph adj (adj[v] lists
// the neighbours of node v; the relation is symmetric) with every node
// starting concurrently, in synchronous rounds: a node's conflict graph
// starts as its incident edges, each round it merges in its neighbours'
// conflict graphs, and the procedure ends with the first round in which no
// graph changes (Lemma 15: Θ(diameter) rounds). It returns that round count
// and the palette size of the greedy colouring every node then derives from
// its own converged graph.
//
// Every conflict graph is a subset of the communication graph's m edges, so
// the n sets are rows of ⌈m/64⌉ words over one numbering of those edges, in
// two slabs (this round's rows and the next's): a round is
// next[v] = cur[v] | ⋁_{u∈N(v)} cur[u], word by word.
func FloodRounds(adj [][]int) (rounds, palette int) {
	n := len(adj)
	// CSR copy of the graph with ascending neighbour lists, so that the
	// edge numbering below is the canonical (A, B) order of EdgeSet.Edges.
	off := make([]int32, n+1)
	for v, nb := range adj {
		off[v+1] = off[v] + int32(len(nb))
	}
	nbr := make([]int32, off[n])
	for v, nb := range adj {
		row := nbr[off[v]:off[v+1]]
		for i, u := range nb {
			row[i] = int32(u)
		}
		slices.Sort(row)
	}
	edges := make([]Edge, 0, len(nbr)/2)
	for v := range adj {
		for _, u := range nbr[off[v]:off[v+1]] {
			if int32(v) < u {
				edges = append(edges, Edge{A: core.NodeID(v), B: core.NodeID(u)})
			}
		}
	}

	words := (len(edges) + 63) / 64
	slab := make([]uint64, 2*n*words)
	cur, next := slab[:n*words], slab[n*words:]
	for k, e := range edges {
		cur[int(e.A)*words+k/64] |= 1 << (k % 64)
		cur[int(e.B)*words+k/64] |= 1 << (k % 64)
	}
	for changed := true; changed; {
		rounds++
		changed = false
		for v := 0; v < n; v++ {
			mine := cur[v*words : (v+1)*words]
			row := next[v*words : (v+1)*words]
			copy(row, mine)
			for _, u := range nbr[off[v]:off[v+1]] {
				for w, x := range cur[int(u)*words : (int(u)+1)*words] {
					row[w] |= x
				}
			}
			changed = changed || !slices.Equal(row, mine)
		}
		cur, next = next, cur
	}

	// The termination condition is that every node's set equals each of
	// its neighbours', so a set's colouring is the colouring of every node
	// that appears in it: colour each distinct set once.
	colored := make([]bool, n)
	maxColor := 0
	held := make([]Edge, 0, len(edges))
	for v := 0; v < n; v++ {
		if colored[v] {
			continue
		}
		held = held[:0]
		for w, x := range cur[v*words : (v+1)*words] {
			for ; x != 0; x &= x - 1 {
				held = append(held, edges[w*64+bits.TrailingZeros64(x)])
			}
		}
		verts, colors := colorEdges(held)
		for i, u := range verts {
			colored[u] = true
			maxColor = max(maxColor, colors[i])
		}
	}
	return rounds, maxColor + 1
}
