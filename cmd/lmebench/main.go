// Command lmebench regenerates every experiment table of DESIGN.md §2 —
// the measured counterpart of the paper's Table 1 and of the theorems'
// predicted scaling — and prints them in the format recorded in
// EXPERIMENTS.md.
//
// Examples:
//
//	lmebench                        # all experiments at full quality
//	lmebench -exp e3,e6             # a subset
//	lmebench -quick                 # fast pass (the configuration unit tests use)
//	lmebench -quick -json           # machine-readable results for benchmark diffing
//	lmebench -replicas 5 -parallel 8 # 5 seeded runs per cell on 8 workers
//	lmebench -micro -json           # observability/telemetry overhead ratios (BENCH_micro.json)
//	lmebench -scale -json           # large-n sweep on the sharded engine (lme/scale/v1)
//	lmebench -quick -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lme/internal/fleet"
	"lme/internal/harness"
	"lme/internal/progress"
	"lme/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lmebench:", err)
		os.Exit(1)
	}
}

// BenchSchema identifies the lmebench -json layout; bump on breaking
// changes. v2 adds replicas, cell_stats, parallel and wall-clock fields.
const BenchSchema = "lme/bench/v2"

// benchResult is one experiment's slice of the -json document: the table
// (rows carry the measured trajectories, e.g. E10's msg/meal column) plus
// the cost of producing it. The trace-loss counters are per-experiment
// deltas and appear only when events were actually lost.
type benchResult struct {
	harness.Table
	ElapsedMS       float64 `json:"elapsed_ms"`
	SchedEvents     uint64  `json:"sched_events"`
	EventsPerSec    float64 `json:"events_per_sec"`
	RingOverwritten uint64  `json:"ring_overwritten,omitempty"`
	SinkDropped     uint64  `json:"sink_dropped,omitempty"`
}

// benchDoc is the lmebench -json document.
type benchDoc struct {
	Schema   string        `json:"schema"`
	Quality  string        `json:"quality"`
	Parallel int           `json:"parallel"`
	Replicas int           `json:"replicas"`
	Results  []benchResult `json:"results"`
}

func run() error {
	var (
		expFlag    = flag.String("exp", "", "comma-separated experiment IDs (e.g. e1,e3); empty = all")
		quick      = flag.Bool("quick", false, "reduced sweep sizes and horizons")
		jsonOut    = flag.Bool("json", false, "emit results as a single JSON document instead of text tables")
		parallel   = flag.Int("parallel", 0, "worker count for the fleet pool; 0 = all cores")
		replicas   = flag.Int("replicas", 1, "independent seeded runs per measurement cell")
		micro      = flag.Bool("micro", false, "run the observed-vs-dark and telemetry-vs-dark overhead benchmarks instead of the experiments")
		scale      = flag.Bool("scale", false, "run the large-n scale sweep on the sharded engine instead of the experiments")
		scaleNs    = flag.String("scale-n", "1000,10000,100000", "comma-separated node counts for -scale")
		scaleHoriz = flag.Duration("scale-horizon", 150*time.Millisecond, "virtual-time span per -scale run")
		scaleSeed  = flag.Uint64("scale-seed", 1, "seed for -scale runs")
		scaleTiles = flag.Int("scale-tiles", 0, "tile grid side for -scale (0 = auto per n, 1 = one tile, the reference)")
		scaleWork  = flag.Int("scale-workers", 0, "worker goroutines for -scale (0 = GOMAXPROCS)")
		scaleTel   = flag.Bool("scale-telemetry", true, "attach per-tile engine telemetry to -scale results (out-of-band; result_hash is unaffected)")
		check      = flag.Bool("check", false, "with -micro: compare against the committed baseline and fail on large regressions")
		baseline   = flag.String("baseline", "BENCH_micro.json", "baseline file for -micro -check")
		checkTol   = flag.Float64("check-tol", 2.0, "regression factor tolerated by -micro -check (ns/op may grow up to this multiple)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")
		progFlag   = flag.Bool("progress", false, "print a live heartbeat (jobs done, events/s, heap, trace loss) to stderr")
		progOut    = flag.String("progress-out", "", "write lme/progress/v1 heartbeat records as JSONL to this file")
		progEach   = flag.Duration("progress-every", 2*time.Second, "wall-clock interval between heartbeats")
	)
	flag.Parse()
	if *replicas < 1 {
		return fmt.Errorf("-replicas must be >= 1 (got %d)", *replicas)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "lmebench: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "lmebench: -memprofile:", err)
			}
		}()
	}

	if *micro {
		var base string
		if *check {
			base = *baseline
		}
		return runMicro(*jsonOut, base, *checkTol)
	}
	if *check {
		return fmt.Errorf("-check requires -micro")
	}
	if *scale {
		var ns []int
		for _, s := range strings.Split(*scaleNs, ",") {
			var n int
			if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &n); err != nil || n < 2 {
				return fmt.Errorf("-scale-n: bad node count %q", s)
			}
			ns = append(ns, n)
		}
		// Virtual time is in µs; the flag takes a wall-style duration for
		// readability (150ms → 150000 virtual µs).
		horizon := sim.Time(scaleHoriz.Microseconds())
		var logw io.Writer
		if !*jsonOut {
			logw = os.Stderr
		}
		out := io.Writer(os.Stdout)
		if !*jsonOut {
			out = io.Discard
		}
		return harness.RunScaleSweep(ns, *scaleSeed, horizon, *scaleTiles, *scaleWork, *scaleTel, out, logw)
	}

	want := map[string]bool{}
	if *expFlag != "" {
		for _, id := range strings.Split(*expFlag, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	quality := harness.Full
	qualityName := "full"
	if *quick {
		quality = harness.Quick
		qualityName = "quick"
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	engine := harness.Engine{Workers: *parallel, Replicas: *replicas, Context: ctx}

	// The fleet heartbeat: a wall-clock ticker goroutine owns the
	// reporter (the sources it samples — events processed, trace loss,
	// the jobs counter — are all atomics, so worker goroutines never
	// touch the reporter itself).
	var stopProgress func() error
	if *progFlag || *progOut != "" {
		cfg := progress.Config{Interval: *progEach, Label: "bench"}
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
		var jobsDone atomic.Int64
		engine.OnResult = func(fleet.Result) { jobsDone.Add(1) }
		rep := progress.New(cfg, progress.Sources{
			Events: harness.EventsProcessed,
			Loss:   harness.TraceLoss,
			Jobs:   func() (done, total int) { return int(jobsDone.Load()), 0 },
		})
		done := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTicker(*progEach)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					rep.Tick()
				case <-done:
					return
				}
			}
		}()
		stopProgress = func() error {
			close(done)
			wg.Wait()
			rep.Final()
			err := rep.Err()
			if e := closeFile(); err == nil {
				err = e
			}
			return err
		}
		defer func() {
			if stopProgress != nil {
				if err := stopProgress(); err != nil {
					fmt.Fprintln(os.Stderr, "lmebench: warning: progress stream:", err)
				}
			}
		}()
	}
	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	doc := benchDoc{
		Schema: BenchSchema, Quality: qualityName,
		Parallel: workers, Replicas: *replicas,
		Results: []benchResult{},
	}
	ran := 0
	for _, exp := range harness.Experiments() {
		if len(want) > 0 && !want[exp.ID] {
			continue
		}
		eventsBefore := harness.EventsProcessed()
		overBefore, dropBefore := harness.TraceLoss()
		start := time.Now()
		tbl, err := engine.Run(exp, quality)
		if err != nil {
			return fmt.Errorf("%s: %w", exp.ID, err)
		}
		elapsed := time.Since(start)
		events := harness.EventsProcessed() - eventsBefore
		overAfter, dropAfter := harness.TraceLoss()
		ran++
		if *jsonOut {
			res := benchResult{
				Table:           *tbl,
				ElapsedMS:       float64(elapsed.Microseconds()) / 1000,
				SchedEvents:     events,
				RingOverwritten: overAfter - overBefore,
				SinkDropped:     dropAfter - dropBefore,
			}
			if elapsed > 0 {
				res.EventsPerSec = float64(events) / elapsed.Seconds()
			}
			doc.Results = append(doc.Results, res)
			continue
		}
		fmt.Println(tbl.String())
		fmt.Printf("(%s completed in %v, %d events)\n\n", exp.ID, elapsed.Round(time.Millisecond), events)
	}
	if ran == 0 {
		return fmt.Errorf("no experiment matched %q", *expFlag)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}
	return nil
}
