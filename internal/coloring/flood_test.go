package coloring

import (
	"fmt"
	"maps"
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"lme/internal/core"
	"lme/internal/graph"
)

// The map-based flood and colouring that FloodRounds and colorEdges
// replaced, kept as the differential oracle: one map[Edge] set per node,
// cloned per node and unioned per neighbour per round, and the recursive
// traversal of Algorithm 4 Line 72 over map adjacency.

// Union inserts every edge of other and reports whether the set changed.
func (s EdgeSet) Union(other EdgeSet) bool {
	changed := false
	for e := range other {
		if _, ok := s[e]; !ok {
			s[e] = struct{}{}
			changed = true
		}
	}
	return changed
}

// Clone returns a copy.
func (s EdgeSet) Clone() EdgeSet {
	out := make(EdgeSet, len(s))
	for e := range s {
		out[e] = struct{}{}
	}
	return out
}

// Equal reports whether both sets hold the same edges.
func (s EdgeSet) Equal(other EdgeSet) bool {
	if len(s) != len(other) {
		return false
	}
	for e := range s {
		if _, ok := other[e]; !ok {
			return false
		}
	}
	return true
}

func oracleGreedyColor(s EdgeSet, me core.NodeID) int {
	if c, ok := oracleGreedyColors(s)[me]; ok {
		return c
	}
	return -1
}

func oracleGreedyColors(s EdgeSet) map[core.NodeID]int {
	adj := make(map[core.NodeID][]core.NodeID)
	for e := range s {
		adj[e.A] = append(adj[e.A], e.B)
		adj[e.B] = append(adj[e.B], e.A)
	}
	vertices := make([]core.NodeID, 0, len(adj))
	for v := range adj {
		sort.Slice(adj[v], func(i, j int) bool { return adj[v][i] < adj[v][j] })
		vertices = append(vertices, v)
	}
	sort.Slice(vertices, func(i, j int) bool { return vertices[i] < vertices[j] })

	colors := make(map[core.NodeID]int, len(adj))
	var visit func(v core.NodeID)
	visit = func(v core.NodeID) {
		if _, done := colors[v]; done {
			return
		}
		used := make(map[int]bool)
		for _, u := range adj[v] {
			if c, ok := colors[u]; ok {
				used[c] = true
			}
		}
		c := 0
		for used[c] {
			c++
		}
		colors[v] = c
		for _, u := range adj[v] {
			visit(u)
		}
	}
	for _, v := range vertices {
		visit(v)
	}
	return colors
}

// oracleFlood returns the round count, the palette size and every node's
// converged set.
func oracleFlood(g *graph.Graph) (rounds, palette int, sets []EdgeSet) {
	sets = make([]EdgeSet, g.N())
	for v := range sets {
		sets[v] = NewEdgeSet()
		for _, u := range g.Neighbors(v) {
			sets[v].Add(core.NodeID(v), core.NodeID(u))
		}
	}
	for {
		rounds++
		next := make([]EdgeSet, g.N())
		changed := false
		for v := range sets {
			next[v] = sets[v].Clone()
			for _, u := range g.Neighbors(v) {
				if next[v].Union(sets[u]) {
					changed = true
				}
			}
		}
		sets = next
		if !changed {
			break
		}
	}
	maxColor := 0
	for v := 0; v < g.N(); v++ {
		if c := oracleGreedyColor(sets[v], core.NodeID(v)); c > maxColor {
			maxColor = c
		}
	}
	return rounds, maxColor + 1, sets
}

func adjacency(g *graph.Graph) [][]int {
	adj := make([][]int, g.N())
	for v := range adj {
		adj[v] = g.Neighbors(v)
	}
	return adj
}

func connectedGeometric(t *testing.T, n int) *graph.Graph {
	t.Helper()
	radius := math.Sqrt((math.Log(float64(n)) + 2) / (math.Pi * float64(n)))
	g, _, err := graph.ConnectedGeometric(n, radius, rand.New(rand.NewPCG(uint64(n), 5)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFloodRoundsMatchesMapOracle(t *testing.T) {
	type tc struct {
		name string
		g    *graph.Graph
	}
	var cases []tc
	for _, n := range []int{1, 2, 16, 64, 256} {
		side := int(math.Ceil(math.Sqrt(float64(n))))
		cases = append(cases,
			tc{fmt.Sprintf("ring/%d", n), graph.Ring(n)},          // ring/16: m < 64; ring/64: m = 64
			tc{fmt.Sprintf("grid/%d", n), graph.Grid(side, side)}, // grid/64: m = 112, 1¾ words
			tc{fmt.Sprintf("geo/%d", n), connectedGeometric(t, n)},
		)
	}
	// Two components hold two distinct converged sets, which colour
	// differently: a triangle needs three colours, the path beside it two.
	split := graph.New(7)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {4, 5}, {5, 6}, {4, 6}} {
		split.AddEdge(e[0], e[1])
	}
	cases = append(cases,
		tc{"two-components", split},
		tc{"edgeless", graph.New(5)},
		tc{"empty", graph.New(0)},
		tc{"clique/12", graph.Clique(12)}, // m = 66: one word and two bits
		tc{"star/65", graph.Star(65)},     // m = 64 again, diameter 2
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			wantRounds, wantPalette, sets := oracleFlood(c.g)
			rounds, palette := FloodRounds(adjacency(c.g))
			if rounds != wantRounds || palette != wantPalette {
				t.Fatalf("FloodRounds = (%d rounds, palette %d), oracle (%d, %d)",
					rounds, palette, wantRounds, wantPalette)
			}
			// The same converged sets through the EdgeSet entry points.
			for v, s := range sets {
				if v > 0 && s.Equal(sets[v-1]) {
					continue
				}
				want := oracleGreedyColors(s)
				if got := GreedyColors(s); !maps.Equal(got, want) {
					t.Fatalf("GreedyColors(set of %d) = %v, oracle %v", v, got, want)
				}
				for u := -1; u <= c.g.N(); u++ {
					wantC, ok := want[core.NodeID(u)]
					if !ok {
						wantC = -1
					}
					if got := GreedyColor(s, core.NodeID(u)); got != wantC {
						t.Fatalf("GreedyColor(set of %d, %d) = %d, oracle %d", v, u, got, wantC)
					}
				}
			}
		})
	}
}

func TestFloodRoundsEdgeless(t *testing.T) {
	for _, n := range []int{0, 1, 5} {
		if rounds, palette := FloodRounds(make([][]int, n)); rounds != 1 || palette != 1 {
			t.Fatalf("n=%d: (%d rounds, palette %d), want (1, 1)", n, rounds, palette)
		}
	}
}

// TestFloodRoundsUnsortedAdjacency: the edge numbering, and with it the
// traversal order of the final colouring, must not depend on the order in
// which the caller lists neighbours.
func TestFloodRoundsUnsortedAdjacency(t *testing.T) {
	g := connectedGeometric(t, 64)
	adj := adjacency(g)
	wantRounds, wantPalette := FloodRounds(adj)
	rng := rand.New(rand.NewPCG(9, 9))
	for _, nb := range adj {
		rng.Shuffle(len(nb), func(i, j int) { nb[i], nb[j] = nb[j], nb[i] })
	}
	if rounds, palette := FloodRounds(adj); rounds != wantRounds || palette != wantPalette {
		t.Fatalf("shuffled adjacency: (%d, %d), sorted (%d, %d)", rounds, palette, wantRounds, wantPalette)
	}
}

// TestGreedyColorsSparseIDs checks the colouring against the recursive
// oracle on random conflict graphs whose node IDs are neither dense nor
// small, as lme1 presents them (a few recolouring nodes out of n).
func TestGreedyColorsSparseIDs(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewPCG(seed, 17))
		n := rng.IntN(14) + 2
		ids := make([]core.NodeID, n)
		for i := range ids {
			ids[i] = core.NodeID(rng.IntN(1 << 20))
		}
		s := NewEdgeSet()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.35 {
					s.Add(ids[i], ids[j])
				}
			}
		}
		colors := GreedyColors(s)
		if want := oracleGreedyColors(s); !maps.Equal(colors, want) {
			t.Fatalf("seed %d: GreedyColors = %v, oracle %v", seed, colors, want)
		}
		for _, id := range append(ids, -1, 1<<21) {
			if got, want := GreedyColor(s, id), oracleGreedyColor(s, id); got != want {
				t.Fatalf("seed %d: GreedyColor(%d) = %d, oracle %d", seed, id, got, want)
			}
		}
		for e := range s {
			if colors[e.A] == colors[e.B] {
				t.Fatalf("seed %d: edge %v monochromatic", seed, e)
			}
		}
	}
}

// TestFloodRoundsAllocs: a flood allocates its CSR, its two-row slab and
// the colouring's scratch — a fixed number of slices however many nodes
// and rounds — where the map flood allocated a set per node per round.
func TestFloodRoundsAllocs(t *testing.T) {
	var counts []float64
	for _, n := range []int{16, 256} {
		adj := adjacency(graph.Ring(n)) // n/2 + 1 rounds
		counts = append(counts, testing.AllocsPerRun(5, func() { FloodRounds(adj) }))
	}
	if counts[0] != counts[1] || counts[1] > 20 {
		t.Fatalf("allocations per flood: ring/16 %v, ring/256 %v; want equal and ≤ 20", counts[0], counts[1])
	}
}
