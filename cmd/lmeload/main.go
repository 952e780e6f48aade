// Command lmeload drives the live lock service with one client
// goroutine per node — heavy-tailed think times, lease-based
// Acquire/Release — and reports acquisitions/sec plus sketch-backed
// grant-latency quantiles.
//
// Examples:
//
//	lmeload -alg choy-singh -topo ring -n 10000 -dur 2s     # 10k clients, in-proc channels
//	lmeload -alg alg2 -transport udp -n 64 -dur 2s          # real UDP loopback sockets
//	lmeload -alg alg2 -n 100 -dur 1s -json > load.json      # machine-readable report
//	lmeload -agree -alg alg2                                # live-vs-sim differential
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"lme"
	"lme/internal/graph"
	"lme/internal/livenet"
	"lme/internal/loadgen"
)

// LoadSchema versions the -json document. v2 added the wire-cost fields
// (bytes_per_acq, datagrams_per_acq); v3 dropped the wire-encoding echo,
// since the codecs are the only payload encoding.
const LoadSchema = "lme/load/v3"

func algUsage() string {
	names := make([]string, 0, len(lme.Algorithms()))
	for _, a := range lme.Algorithms() {
		names = append(names, string(a))
	}
	return "algorithm: " + strings.Join(names, "|")
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lmeload:", err)
		os.Exit(1)
	}
}

// report is the lmeload -json document: the run result plus an echo of
// the configuration that produced it.
type report struct {
	Schema    string `json:"schema"`
	Algorithm string `json:"algorithm"`
	Topology  string `json:"topology"`
	Seed      uint64 `json:"seed"`
	DurMS     int64  `json:"duration_ms"`
	loadgen.Result
}

func run() error {
	var (
		algName   = flag.String("alg", "choy-singh", algUsage())
		topo      = flag.String("topo", "ring", "topology: ring|line|grid|clique")
		n         = flag.Int("n", 1000, "number of nodes (grid uses the nearest square)")
		transport = flag.String("transport", "channel", "transport: channel|udp")
		dur       = flag.Duration("dur", 2*time.Second, "load duration (wall clock)")
		hold      = flag.Duration("hold", 0, "lease hold time per acquisition (default live eat time)")
		thinkMin  = flag.Duration("think-min", 0, "bounded-Pareto think scale (default 200µs)")
		thinkMax  = flag.Duration("think-max", 0, "think-time cap (default 50ms)")
		alpha     = flag.Float64("alpha", 0, "Pareto tail index (default 1.5)")
		lease     = flag.Duration("lease", 0, "lease TTL before forced expiry (default 250ms)")
		nu        = flag.Duration("nu", 0, "max message delay ν, channel transport (default 500µs)")
		seed      = flag.Uint64("seed", 1, "random seed")
		agree     = flag.Bool("agree", false, "run the live-vs-sim agreement check instead of a load run")
		jsonOut   = flag.Bool("json", false, "emit the report as JSON on stdout")
	)
	flag.Parse()

	if *agree {
		rep, err := loadgen.Agree(lme.Algorithm(*algName), *seed)
		if err != nil {
			return err
		}
		fmt.Println(rep)
		if !rep.OK() {
			return fmt.Errorf("live runtime disagrees with the simulator")
		}
		return nil
	}

	g, topoName, err := buildGraph(*topo, *n)
	if err != nil {
		return err
	}
	protos, err := lme.NewProtocols(lme.Algorithm(*algName), lme.FromGraph(g))
	if err != nil {
		return err
	}
	var tr livenet.Transport
	if *transport == "udp" {
		tr, err = livenet.NewUDPTransport(g, 0)
		if err != nil {
			return err
		}
	} else if *transport != "channel" {
		return fmt.Errorf("unknown transport %q (want channel or udp)", *transport)
	}

	res, err := loadgen.Run(loadgen.Config{
		Graph:      g,
		Protocols:  protos,
		Transport:  tr,
		Duration:   *dur,
		Hold:       *hold,
		ThinkMin:   *thinkMin,
		ThinkAlpha: *alpha,
		ThinkMax:   *thinkMax,
		Seed:       *seed,
		Live: livenet.Config{
			MaxMessageDelay: *nu,
			LeaseTTL:        *lease,
			Seed:            *seed,
		},
	})
	if err != nil {
		return err
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(report{
			Schema:    LoadSchema,
			Algorithm: *algName,
			Topology:  topoName,
			Seed:      *seed,
			DurMS:     dur.Milliseconds(),
			Result:    res,
		})
	}
	fmt.Println(res)
	if res.Violations != 0 {
		return fmt.Errorf("%d mutual exclusion violations", res.Violations)
	}
	return nil
}

// buildGraph maps the -topo flag to a static communication graph using
// the O(n) constructors (no coordinates needed for a live run).
func buildGraph(topo string, n int) (*graph.Graph, string, error) {
	if n < 2 {
		return nil, "", fmt.Errorf("need at least 2 nodes, got %d", n)
	}
	switch topo {
	case "ring":
		return graph.Ring(n), fmt.Sprintf("ring(%d)", n), nil
	case "line":
		return graph.Line(n), fmt.Sprintf("line(%d)", n), nil
	case "clique":
		return graph.Clique(n), fmt.Sprintf("clique(%d)", n), nil
	case "grid":
		side := 1
		for (side+1)*(side+1) <= n {
			side++
		}
		return graph.Grid(side, side), fmt.Sprintf("grid(%dx%d)", side, side), nil
	default:
		return nil, "", fmt.Errorf("unknown topology %q (want ring|line|grid|clique)", topo)
	}
}
