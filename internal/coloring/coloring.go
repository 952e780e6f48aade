// Package coloring supplies the two colouring procedures of §5.4 of the
// paper.
//
// For the greedy procedure (Algorithm 4) it provides the deterministic
// local colouring step: every participant collects the same conflict graph
// (edges between concurrently-recolouring nodes) and colours it greedily in
// a predefined traversal order, so all participants derive the same legal
// colouring without further communication.
//
// For the fast procedure (Algorithm 5) it provides δ-cover-free set
// families and the palette-reduction schedule of Linial's algorithm. The
// paper relies on the Erdős–Frankl–Füredi existence theorem (Theorem 18)
// and suggests exhaustive search; this package substitutes the standard
// explicit Reed–Solomon construction — degree-d polynomials over GF(q),
// with F_c = {(x, P_c(x)) : x ∈ [q]} — which has exactly the covering-free
// property Theorem 18 asserts (see DESIGN.md §4.2).
package coloring

import (
	"cmp"
	"fmt"
	"slices"

	"lme/internal/core"
)

// Edge is an undirected edge of a conflict graph, stored with A < B.
type Edge struct {
	A, B core.NodeID
}

// NewEdge returns the canonical form of the edge (a, b).
func NewEdge(a, b core.NodeID) Edge {
	if a > b {
		a, b = b, a
	}
	return Edge{A: a, B: b}
}

// EdgeSet is the conflict graph G exchanged by the greedy recolouring
// procedure of Algorithm 4.
type EdgeSet map[Edge]struct{}

// NewEdgeSet returns an empty edge set.
func NewEdgeSet() EdgeSet { return make(EdgeSet) }

// Add inserts the edge (a, b); self-loops are ignored. It reports whether
// the set changed.
func (s EdgeSet) Add(a, b core.NodeID) bool {
	if a == b {
		return false
	}
	e := NewEdge(a, b)
	if _, ok := s[e]; ok {
		return false
	}
	s[e] = struct{}{}
	return true
}

// Edges returns the edges in canonical sorted order.
func (s EdgeSet) Edges() []Edge {
	out := make([]Edge, 0, len(s))
	for e := range s {
		out = append(out, e)
	}
	slices.SortFunc(out, func(x, y Edge) int {
		return cmp.Or(cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B))
	})
	return out
}

// GreedyColors deterministically colours the conflict graph and returns the
// colour of every node that appears in it. Per Algorithm 4 Line 72, each
// component is traversed depth-first from its smallest-ID node with
// ascending neighbour order, assigning every node the smallest colour unused
// among its already-coloured neighbours. Two participants holding equal edge
// sets therefore compute identical colourings, which is what Lemma 14 needs.
//
// The colour range is [0, d(G)] where d(G) is the maximum degree of the
// conflict graph, hence at most the paper's δ.
func GreedyColors(s EdgeSet) map[core.NodeID]int {
	verts, colors := colorEdges(s.Edges())
	out := make(map[core.NodeID]int, len(verts))
	for i, v := range verts {
		out[v] = colors[i]
	}
	return out
}

// GreedyColor returns me's colour under GreedyColors(s), or -1 if me does
// not appear in the graph.
func GreedyColor(s EdgeSet, me core.NodeID) int {
	if c, ok := GreedyColors(s)[me]; ok {
		return c
	}
	return -1
}

// colorEdges is the traversal behind GreedyColors over a conflict graph
// given as its canonically sorted edge list: it returns the graph's nodes in
// ascending order and, in parallel, their colours.
func colorEdges(edges []Edge) (verts []core.NodeID, colors []int) {
	if len(edges) == 0 {
		return nil, nil
	}
	verts = make([]core.NodeID, 0, 2*len(edges))
	for _, e := range edges {
		verts = append(verts, e.A, e.B)
	}
	slices.Sort(verts)
	verts = slices.Compact(verts)
	index := func(id core.NodeID) int32 {
		i, _ := slices.BinarySearch(verts, id)
		return int32(i)
	}

	// CSR adjacency over vertex indices. Filling in sorted-edge order
	// leaves every list ascending: a vertex's smaller neighbours arrive
	// first (edges sorted by A), then its larger ones (by B).
	off := make([]int32, len(verts)+1)
	ends := make([]int32, 2*len(edges)) // endpoint indices, edge by edge
	for i, e := range edges {
		a, b := index(e.A), index(e.B)
		ends[2*i], ends[2*i+1] = a, b
		off[a+1]++
		off[b+1]++
	}
	maxDeg := int32(0)
	for v := range verts {
		maxDeg = max(maxDeg, off[v+1])
		off[v+1] += off[v]
	}
	adj := make([]int32, 2*len(edges))
	next := make([]int32, len(verts)) // per-vertex cursor into adj: CSR fill, then DFS
	for i := range edges {
		a, b := ends[2*i], ends[2*i+1]
		adj[off[a]+next[a]] = b
		next[a]++
		adj[off[b]+next[b]] = a
		next[b]++
	}

	colors = make([]int, len(verts))
	for v := range colors {
		colors[v] = -1
	}
	used := make([]bool, maxDeg+1) // some colour in [0, deg(v)] is always free
	paint := func(v int32) {
		nbrs := adj[off[v]:off[v+1]]
		for _, u := range nbrs {
			if c := colors[u]; c >= 0 {
				used[c] = true
			}
		}
		c := 0
		for used[c] {
			c++
		}
		colors[v] = c
		for _, u := range nbrs {
			if c := colors[u]; c >= 0 {
				used[c] = false
			}
		}
	}
	clear(next)
	stack := make([]int32, 0, len(verts))
	for root := range verts {
		if colors[root] >= 0 {
			continue
		}
		paint(int32(root))
		stack = append(stack, int32(root))
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			if next[v] == off[v+1]-off[v] {
				stack = stack[:len(stack)-1]
				continue
			}
			u := adj[off[v]+next[v]]
			next[v]++
			if colors[u] < 0 {
				paint(u)
				stack = append(stack, u)
			}
		}
	}
	return verts, colors
}

// Family is an explicit δ-cover-free family: K subsets of {0,…,M-1} such
// that no set is covered by the union of any δ others. Set c is
// {x·Q + P_c(x) : x ∈ [Q]} where P_c is the degree-D polynomial over GF(Q)
// whose coefficients are the base-Q digits of c. Distinct polynomials agree
// on at most D points, so a union of δ other sets misses at least
// Q − δ·D ≥ 1 elements of any set.
type Family struct {
	// Q is the prime field size; each set has Q elements.
	Q int
	// D is the polynomial degree bound.
	D int
	// K is the number of sets (colours of the incoming palette).
	K int
	// M = Q² is the ground-set size (colours of the outgoing palette).
	M int
}

// NewFamily constructs the smallest such family (by outgoing palette M)
// that supports k incoming colours with cover-freeness against delta
// neighbours.
func NewFamily(k, delta int) (Family, error) {
	if k < 1 {
		return Family{}, fmt.Errorf("coloring: family needs k ≥ 1, got %d", k)
	}
	if delta < 1 {
		delta = 1
	}
	best := Family{}
	found := false
	// Higher degrees let smaller fields address k colours (q^(d+1) ≥ k)
	// at the cost of needing q ≥ d·δ+1. Try a few degrees and keep the
	// smallest ground set.
	for d := 1; d <= 8; d++ {
		// ceilRoot gives the smallest q with q^(d+1) ≥ k, so the
		// prime chosen here always addresses all k colours.
		q := nextPrime(max(d*delta+1, ceilRoot(k, d+1)))
		f := Family{Q: q, D: d, K: k, M: q * q}
		if !found || f.M < best.M {
			best, found = f, true
		}
	}
	if !found {
		return Family{}, fmt.Errorf("coloring: no family for k=%d delta=%d", k, delta)
	}
	return best, nil
}

// Set returns the elements of set c in ascending order. c must be in
// [0, K).
func (f Family) Set(c int) []int {
	out := make([]int, f.Q)
	for x := 0; x < f.Q; x++ {
		out[x] = x*f.Q + f.eval(c, x)
	}
	return out
}

// eval computes P_c(x) over GF(Q), where the coefficients of P_c are the
// base-Q digits of c.
func (f Family) eval(c, x int) int {
	digits := make([]int, f.D+1)
	for i := 0; i <= f.D; i++ {
		digits[i] = c % f.Q
		c /= f.Q
	}
	// Horner evaluation from the top coefficient.
	v := 0
	for i := f.D; i >= 0; i-- {
		v = (v*x + digits[i]) % f.Q
	}
	return v
}

// PickFree returns the smallest element of Set(mine) not contained in any
// Set(o) for o in others. It fails only if others exceeds the family's
// cover-freeness budget (more than Q−1 distinct conflicting sets after
// accounting for degree D).
func (f Family) PickFree(mine int, others []int) (int, error) {
	covered := make(map[int]bool)
	for _, o := range others {
		if o == mine {
			continue // identical set would cover everything; the
			// algorithms never present it (colours are IDs or
			// previously legal), so skip defensively.
		}
		for _, e := range f.Set(o) {
			covered[e] = true
		}
	}
	for _, e := range f.Set(mine) {
		if !covered[e] {
			return e, nil
		}
	}
	return 0, fmt.Errorf("coloring: set %d covered by %d others (Q=%d D=%d)", mine, len(others), f.Q, f.D)
}

// Schedule returns the palette-reduction rounds of Linial's algorithm for
// a system of n nodes with maximum degree delta: round t maps colours in
// [K_t] to colours in [K_{t+1}] via a cover-free family, starting from
// K_0 = n (initial colours are node IDs) and stopping when the palette no
// longer shrinks. The length of the schedule is O(log* n) and the final
// palette is O(δ²), matching Lemma 21.
func Schedule(n, delta int) ([]Family, error) {
	var rounds []Family
	k := max(n, 2)
	for range 64 {
		f, err := NewFamily(k, delta)
		if err != nil {
			return nil, err
		}
		if f.M >= k {
			break // fixed point: reduction no longer helps
		}
		rounds = append(rounds, f)
		k = f.M
	}
	return rounds, nil
}

// FinalPalette returns the palette size after running the schedule (n if
// the schedule is empty).
func FinalPalette(n, delta int) (int, error) {
	sched, err := Schedule(n, delta)
	if err != nil {
		return 0, err
	}
	if len(sched) == 0 {
		return max(n, 2), nil
	}
	return sched[len(sched)-1].M, nil
}

// ReductionRounds returns the number of one-colour-elimination rounds
// needed to convert a K-colouring to a (delta+1)-colouring: in round r the
// holders of colour K-1-r (an independent set, since the colouring is
// legal) simultaneously re-pick the smallest colour free among their
// neighbours, which always exists below delta+1. This is the classic
// deterministic conversion the paper's discussion chapter refers to
// ("O(δ²)-coloring can be deterministically converted to (δ+1)-coloring").
func ReductionRounds(k, delta int) int {
	if k <= delta+1 {
		return 0
	}
	return k - (delta + 1)
}

// ReduceStep computes a node's colour after one elimination round
// targeting topColor: holders of topColor pick the smallest colour not
// used by any neighbour; everyone else keeps their colour. neighborColors
// may contain duplicates.
func ReduceStep(mine, topColor int, neighborColors []int) int {
	if mine != topColor {
		return mine
	}
	used := make(map[int]bool, len(neighborColors))
	for _, c := range neighborColors {
		used[c] = true
	}
	c := 0
	for used[c] {
		c++
	}
	return c
}

// nextPrime returns the smallest prime ≥ n.
func nextPrime(n int) int {
	if n <= 2 {
		return 2
	}
	for candidate := n; ; candidate++ {
		if isPrime(candidate) {
			return candidate
		}
	}
}

func isPrime(n int) bool {
	if n < 2 {
		return false
	}
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// ceilRoot returns ⌈k^(1/r)⌉ (smallest q with q^r ≥ k).
func ceilRoot(k, r int) int {
	if k <= 1 {
		return 1
	}
	q := 1
	for pow(q, r) < k {
		q++
	}
	return q
}

// pow is integer exponentiation with saturation to avoid overflow for the
// small arguments used here.
func pow(base, exp int) int {
	result := 1
	for range exp {
		if result > 1<<40 {
			return 1 << 40
		}
		result *= base
	}
	return result
}
