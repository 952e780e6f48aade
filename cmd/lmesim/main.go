// Command lmesim runs a single local-mutual-exclusion simulation and
// prints its metrics: the quickest way to poke at one algorithm on one
// topology.
//
// Examples:
//
//	lmesim -alg alg2 -topo line -n 16 -dur 5s
//	lmesim -alg alg1-linial -topo geometric -n 48 -radius 0.2 -movers 8 -dur 10s
//	lmesim -alg chandy-misra -topo line -n 12 -crash 6 -crash-at 2s -dur 20s
//	lmesim -alg alg2 -n 24 -dur 5s -json                  # machine-readable telemetry
//	lmesim -alg alg2 -n 24 -dur 5s -trace-out run.jsonl   # JSONL event trace (see lmetrace)
//	lmesim -alg alg2 -n 24 -dur 5s -spans-out spans.jsonl # per-attempt CS spans (lmetrace -spans)
//	lmesim -alg alg2 -n 24 -dur 5s -postmortem pm.json    # flight-recorder dump on violation
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"lme"
)

// parseTiles resolves the -tiles flag: a grid side, or "auto" to let
// lme.AutoTiles size the grid for n. Bad values get a did-you-mean-style
// message pointing at the two accepted forms instead of a bare
// strconv error.
func parseTiles(s string, n int) (int, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "auto", "a":
		return lme.AutoTiles(n), nil
	}
	v, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil || v < 1 {
		return 0, fmt.Errorf("-tiles: %q is not a tile grid side — did you mean \"auto\" (size for -n) or an integer like -tiles 4 (a 4×4 grid; 1 = classic engine)?", s)
	}
	return v, nil
}

// algUsage assembles the -alg help text from the algorithm registry so
// the flag never drifts from what NewSimulation accepts.
func algUsage() string {
	names := make([]string, 0, len(lme.Algorithms()))
	for _, a := range lme.Algorithms() {
		names = append(names, string(a))
	}
	return "algorithm: " + strings.Join(names, "|")
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lmesim:", err)
		os.Exit(1)
	}
}

// result is the lmesim -json document: the run telemetry plus an echo of
// the configuration that produced it.
type result struct {
	Topology string  `json:"topology"`
	Radius   float64 `json:"radius"`
	Seed     uint64  `json:"seed"`
	lme.Report
}

func run() error {
	var (
		algName  = flag.String("alg", "alg2", algUsage())
		topo     = flag.String("topo", "geometric", "topology: line|grid|clique|geometric")
		n        = flag.Int("n", 24, "number of nodes")
		radius   = flag.Float64("radius", 0.25, "radio range (geometric topology)")
		seed     = flag.Uint64("seed", 1, "random seed")
		dur      = flag.Duration("dur", 5*time.Second, "virtual time to simulate")
		eat      = flag.Duration("eat", 5*time.Millisecond, "critical section duration τ")
		think    = flag.Duration("think", 10*time.Millisecond, "max thinking time (0 = saturated)")
		movers   = flag.Int("movers", 0, "number of random-waypoint movers")
		speed    = flag.Float64("speed", 0.3, "mover speed (plane units/s)")
		crash    = flag.Int("crash", -1, "node to crash (-1 = none)")
		crashAt  = flag.Duration("crash-at", time.Second, "crash time")
		verbose  = flag.Bool("v", false, "print per-node meal counts")
		trace    = flag.Bool("trace", false, "print the world event trace (state, link, mobility, doorway and recolouring events)")
		gantt    = flag.Duration("gantt", 0, "render an ASCII eating timeline of the final window (e.g. -gantt 500ms)")
		jsonOut  = flag.Bool("json", false, "emit the run telemetry as a single JSON object instead of text")
		traceOut = flag.String("trace-out", "", "write the full typed event stream as JSONL to this file (summarise with lmetrace)")
		spansOut = flag.String("spans-out", "", "write per-attempt CS spans as JSONL to this file (inspect with lmetrace -spans)")
		postmort = flag.String("postmortem", "", "on a safety violation, dump the event ring, open spans and wait-for graph to this file")
		stats    = flag.Bool("stats", false, "print the counter/histogram registry after the run")
		progFlag = flag.Bool("progress", false, "print a live heartbeat to stderr while the run executes")
		progOut  = flag.String("progress-out", "", "write lme/progress/v1 heartbeat records as JSONL to this file")
		progEach = flag.Duration("progress-every", 2*time.Second, "wall-clock interval between heartbeats")
		tiles    = flag.String("tiles", "1", "tile grid side of the engine: an integer or \"auto\" (1 = one tile on the calling goroutine; the trace is identical for every side)")
		shardW   = flag.Int("shard-workers", 0, "worker goroutines for the sharded engine (0 = GOMAXPROCS; needs -tiles > 1)")
		telFlag  = flag.Bool("telemetry", false, "collect engine execution telemetry (lme/telemetry/v1) and attach it to -progress heartbeats; out-of-band, the trace is unchanged")
	)
	flag.Parse()

	topology, err := buildTopology(*topo, *n, *radius, *seed)
	if err != nil {
		return err
	}
	tileSide, err := parseTiles(*tiles, *n)
	if err != nil {
		return err
	}
	sim, err := lme.NewSimulation(lme.Config{
		Algorithm:      lme.Algorithm(*algName),
		Topology:       topology,
		Seed:           *seed,
		EatTime:        *eat,
		ThinkMax:       *think,
		Tiles:          tileSide,
		ShardWorkers:   *shardW,
		Telemetry:      *telFlag,
		PostmortemPath: *postmort,
		// Without -spans-out, a postmortem (whose dump lists open spans)
		// or a -gantt chart (which needs interval history) nothing reads
		// retained records, so stream-fold them: observability memory
		// stays O(nodes) however long the run is.
		FoldSpans: *spansOut == "" && *postmort == "" && *gantt == 0,
	})
	if err != nil {
		return err
	}
	// progressClose flushes the heartbeat stream after the run; set when
	// any -progress* flag armed the reporter.
	var progressClose func() error
	if *progFlag || *progOut != "" {
		cfg := lme.ProgressConfig{Every: *progEach, Label: *algName}
		if *progFlag {
			cfg.Human = os.Stderr
		}
		closeFile := func() error { return nil }
		if *progOut != "" {
			f, err := os.Create(*progOut)
			if err != nil {
				return err
			}
			w := bufio.NewWriter(f)
			cfg.JSONL = w
			closeFile = func() error {
				if err := w.Flush(); err != nil {
					f.Close()
					return err
				}
				return f.Close()
			}
		}
		sim.EnableProgress(cfg)
		progressClose = func() error {
			err := sim.FlushProgress()
			if e := closeFile(); err == nil {
				err = e
			}
			return err
		}
	}
	if *trace {
		sim.SetTracer(func(at time.Duration, line string) {
			fmt.Printf("%12v  %s\n", at, line)
		})
	}
	// traceClose drains the bus's batch buffer and the bufio layer and
	// closes the file, reporting the first failure anywhere in the chain;
	// it runs on error paths too, so a violated run still leaves as much
	// trace on disk as was written.
	var traceClose func() error
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		w := bufio.NewWriter(f)
		sim.Bus().SetSink(w)
		traceClose = func() error {
			err := sim.Bus().Flush()
			if e := w.Flush(); err == nil {
				err = e
			}
			if e := f.Close(); err == nil {
				err = e
			}
			return err
		}
	}
	if *movers > 0 {
		if err := sim.Roam(moverIDs(*n, *movers), *speed, *dur*3/4); err != nil {
			return err
		}
	}
	if *crash >= 0 {
		if err := sim.Crash(*crash, *crashAt); err != nil {
			return err
		}
	}
	start := time.Now()
	runErr := sim.RunFor(*dur)
	wall := time.Since(start)
	if progressClose != nil {
		if err := progressClose(); err != nil {
			fmt.Fprintf(os.Stderr, "lmesim: warning: progress stream: %v\n", err)
		}
	}
	// A sink failure must not pass silently — the trace file is
	// truncated. Warn immediately (so the report below still prints) and
	// exit non-zero at the end.
	var sinkErr error
	if traceClose != nil {
		if err := traceClose(); err != nil {
			if n := sim.TraceLoss().SinkDropped; n > 0 {
				err = fmt.Errorf("%w (%d events dropped)", err, n)
			}
			fmt.Fprintf(os.Stderr, "lmesim: warning: trace sink: %v; %s is truncated\n", err, *traceOut)
			sinkErr = fmt.Errorf("trace output truncated (see warning above)")
		}
	}
	// Spans are written even when the run failed: a violated run's spans
	// are exactly what the post-mortem reader wants next to the dump.
	if *spansOut != "" {
		f, err := os.Create(*spansOut)
		if err != nil {
			return err
		}
		w := bufio.NewWriter(f)
		if err := sim.WriteSpans(w); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("spans: %w", err)
		}
	}
	if runErr != nil {
		return runErr
	}

	if *jsonOut {
		doc := result{
			Topology: *topo,
			Radius:   *radius,
			Seed:     *seed,
			Report:   sim.Report(wall),
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			return err
		}
		if doc.Violations > 0 {
			return fmt.Errorf("%d mutual exclusion violations", doc.Violations)
		}
		return sinkErr
	}

	res := sim.Results()
	rep := sim.Report(wall)
	fmt.Printf("algorithm    %s\n", *algName)
	fmt.Printf("topology     %s n=%d\n", *topo, *n)
	fmt.Printf("simulated    %v (%.0f events/s wall)\n", sim.Now(), rep.EventsPerSec)
	fmt.Printf("meals        %d\n", res.TotalMeals)
	fmt.Printf("response     n=%d mean=%v p95=%v max=%v\n",
		res.ResponseCount, res.ResponseMean, res.ResponseP95, res.ResponseMax)
	fmt.Printf("messages     sent=%d delivered=%d per-meal=%.1f\n",
		rep.Messages.Sent, rep.Messages.Delivered, rep.Messages.PerMeal)
	fmt.Printf("violations   %d\n", res.SafetyViolations)
	fmt.Printf("starved      %v\n", res.Starved)
	if *verbose {
		for i := 0; i < *n; i++ {
			fmt.Printf("  node %2d: %-8s meals=%d\n", i, sim.NodeState(i), sim.EatCount(i))
		}
	}
	if *stats {
		fmt.Println()
		fmt.Print(sim.MetricsSnapshot())
		loss := sim.TraceLoss()
		fmt.Printf("\ntrace loss   ring_overwritten=%d sink_dropped=%d\n",
			loss.RingOverwritten, loss.SinkDropped)
	}
	if *gantt > 0 {
		fmt.Println(sim.Gantt(*gantt, 96))
	}
	if res.SafetyViolations > 0 {
		return fmt.Errorf("%d mutual exclusion violations", res.SafetyViolations)
	}
	return sinkErr
}

// moverIDs picks min(movers, n) distinct node IDs spread evenly over
// [0, n). Multiplying before dividing keeps the picks distinct for every
// movers ≤ n (consecutive picks differ by at least ⌊n/movers⌋ ≥ 1); the
// old i*(n/movers) formula collapsed to all-zeros when movers > n/1.
func moverIDs(n, movers int) []int {
	if movers > n {
		movers = n
	}
	ids := make([]int, 0, movers)
	for i := 0; i < movers; i++ {
		ids = append(ids, i*n/movers)
	}
	return ids
}

func buildTopology(kind string, n int, radius float64, seed uint64) (lme.Topology, error) {
	switch kind {
	case "line":
		return lme.Line(n), nil
	case "clique":
		return lme.Clique(n), nil
	case "grid":
		side := 1
		for side*side < n {
			side++
		}
		return lme.Grid(side, (n+side-1)/side), nil
	case "geometric":
		return lme.Geometric(n, radius, seed)
	default:
		return lme.Topology{}, fmt.Errorf("unknown topology %q", kind)
	}
}
