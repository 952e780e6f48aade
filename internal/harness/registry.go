package harness

import (
	"lme/internal/baseline"
	"lme/internal/core"
	"lme/internal/graph"
	"lme/internal/lme1"
	"lme/internal/lme2"
)

// Algorithm is one row of the algorithm registry: the single source of
// truth tying a selectable name to its documentation line, the paper's
// Table 1 bounds and its node constructor. The lme facade's Algorithms,
// AlgorithmDoc and protocol factory, the lmesim/lmeload -alg usage text
// and every experiment table derive from this table.
type Algorithm struct {
	Name string
	Doc  string
	// FL and RT are the failure locality and response time the paper's
	// Table 1 claims ("" for the global contrast, which it does not list).
	FL, RT string
	// New builds the per-node protocol factory over the communication
	// graph g returns. Only the rows that need n, δ or the static graph
	// call g, so the others cost nothing at any size. recolorFirst makes
	// an Algorithm-1 node recolour on its first hungry journey.
	New func(g func() *graph.Graph, recolorFirst bool) func(core.NodeID) core.Protocol
}

// registry lists the rows in presentation order (paper algorithms first,
// then baselines).
var registry = []Algorithm{
	{"alg1-greedy", "paper Alg 1, greedy recolouring: FL n, RT O((n+δ³)δ)", "n", "O((n+δ³)δ)",
		func(_ func() *graph.Graph, recolorFirst bool) func(core.NodeID) core.Protocol {
			return func(core.NodeID) core.Protocol {
				return lme1.New(lme1.Config{Variant: lme1.VariantGreedy, RecolorFirst: recolorFirst})
			}
		}},
	{"alg1-linial", "paper Alg 1, Linial recolouring: FL max(log*n,4)+2, RT O((log*n+δ⁴)δ)", "max(log*n,4)+2", "O((log*n+δ⁴)δ)",
		linial(lme1.VariantLinial)},
	{"alg1-linial-reduce", "Alg 1, Linial recolouring plus colour reduction to δ+1", "max(log*n,4)+2", "O((log*n+δ²+δ³)δ)",
		linial(lme1.VariantLinialReduce)},
	{"alg2", "paper Alg 2: FL 2 (optimal), RT O(n²) mobile / O(n) static", "2", "O(n²);O(n) static",
		func(func() *graph.Graph, bool) func(core.NodeID) core.Protocol {
			return func(core.NodeID) core.Protocol { return lme2.New() }
		}},
	{"chandy-misra", "hygienic dining philosophers baseline: FL n", "n", "O(n)",
		func(func() *graph.Graph, bool) func(core.NodeID) core.Protocol {
			return func(core.NodeID) core.Protocol { return baseline.NewChandyMisra() }
		}},
	{"choy-singh", "static doubly-doored baseline, pre-computed colouring: FL 4", "4", "O(δ²)",
		func(g func() *graph.Graph, _ bool) func(core.NodeID) core.Protocol {
			return baseline.NewChoySingh(g())
		}},
	{"alg2-nonotify", "Alg 2 without notifications (ablation): loses O(n) static RT", "2", "O(n²)",
		func(func() *graph.Graph, bool) func(core.NodeID) core.Protocol {
			return func(core.NodeID) core.Protocol { return baseline.NewNoNotify() }
		}},
	{"global-token", "Raymond tree-token GLOBAL mutual exclusion contrast; static only", "", "",
		func(g func() *graph.Graph, _ bool) func(core.NodeID) core.Protocol {
			return baseline.NewGlobalToken(g())
		}},
}

// linial is the constructor of the Linial-recolouring rows, which know n
// and δ (floored at 1) of the deployment.
func linial(v lme1.Variant) func(func() *graph.Graph, bool) func(core.NodeID) core.Protocol {
	return func(g func() *graph.Graph, recolorFirst bool) func(core.NodeID) core.Protocol {
		gr := g()
		n, delta := gr.N(), max(gr.MaxDegree(), 1)
		return func(core.NodeID) core.Protocol {
			return lme1.New(lme1.Config{Variant: v, N: n, Delta: delta, RecolorFirst: recolorFirst})
		}
	}
}

// greedyColoured is the alg1-greedy row's protocol with fixed initial
// colours instead of ID colours: the Figure 6 world of E8.
func greedyColoured(colors map[core.NodeID]int) func(core.NodeID) core.Protocol {
	return func(core.NodeID) core.Protocol {
		return lme1.New(lme1.Config{
			Variant:      lme1.VariantGreedy,
			InitialColor: func(id core.NodeID) int { return colors[id] },
		})
	}
}

// Algorithms returns the registry rows in presentation order.
func Algorithms() []Algorithm { return append([]Algorithm(nil), registry...) }

// LookupAlgorithm returns the row registered under name.
func LookupAlgorithm(name string) (Algorithm, bool) {
	for _, a := range registry {
		if a.Name == name {
			return a, true
		}
	}
	return Algorithm{}, false
}

// row returns the registered row of an experiment's algorithm; the names
// are the plans' own literals, so a miss is a plan bug.
func row(name string) Algorithm {
	a, ok := LookupAlgorithm(name)
	if !ok {
		panic("harness: unknown algorithm " + name)
	}
	return a
}
