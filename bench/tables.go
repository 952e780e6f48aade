package bench

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"lme/internal/fleet"
	"lme/internal/harness"
)

// tables_full runs every experiment of the paper reproduction at Full
// quality through the program's own harness.Engine. The benchmark only
// transforms each experiment's plan before the engine sees it: every job
// seed is re-derived from the benchmark seed (the inputs), and every job
// is wrapped in a timer (the client-side latency sample). One replica
// per measurement keeps a whole run near five seconds, so a pass fits
// several and reports the median run; every run must render the same
// tables as the first.

// jobLog collects the wall time of every fleet job of one run.
type jobLog struct {
	mu     sync.Mutex
	wallNs []int64
	failed int64
	t      *tracer // non-nil: also record a span per job
	exp    uint64  // experiment number of the plan being executed
	parent uint64  // its Engine.Run span
}

// instrument returns e with its plan re-seeded and its jobs timed: every
// job seed is mixed with the benchmark seed by the fleet's own replica
// derivation, so the tables' inputs follow --seed while distinct jobs keep
// distinct streams. planNs accumulates the time spent building plans (the
// set-up cost).
func instrument(e harness.Experiment, seed uint64, log *jobLog, planNs *int64) harness.Experiment {
	plan := e.Plan
	e.Plan = func(q harness.Quality, replicas int) (*harness.Plan, error) {
		begin := now()
		p, err := plan(q, replicas)
		*planNs += now() - begin
		if err != nil {
			return nil, err
		}
		for i := range p.Jobs {
			job := &p.Jobs[i]
			job.Seed = fleet.Seed(job.Seed, int(seed))
			run := job.Run
			job.Run = func(ctx context.Context, s uint64) (any, error) {
				start := now()
				v, err := run(ctx, s)
				end := now()
				log.mu.Lock()
				log.wallNs = append(log.wallNs, end-start)
				if err != nil && !errors.Is(err, fleet.ErrSkipped) {
					log.failed++
				}
				log.mu.Unlock()
				if log.t != nil {
					log.t.addSpan(Span{ID: log.t.newID(), Parent: log.parent, Name: "fleet.Job", Node: -1, Op: log.exp, Start: start, End: end})
				}
				return v, err
			}
		}
		return p, nil
	}
	return e
}

// tablesRun is one run of all experiments.
type tablesRun struct {
	setupS, wallS, cpuS float64
	events              uint64
	jobs                []int64 // sorted job wall times
	failed              int64
	expWallS            map[string]float64
	digest              string
	msgsPerCS, rtP95MS  float64
	heapPerJob          float64
	rtd                 rtDelta
}

// leadingFloat parses the number a table cell starts with ("124.62ms",
// "26.4±0.1").
func leadingFloat(cell string) (float64, error) {
	end := strings.IndexFunc(cell, func(r rune) bool { return (r < '0' || r > '9') && r != '.' })
	if end < 0 {
		end = len(cell)
	}
	return strconv.ParseFloat(cell[:end], 64)
}

// tableCell finds the cell of the row whose first column is rowKey under
// the named header.
func tableCell(t *harness.Table, rowKey, column string) (string, error) {
	col := slices.Index(t.Header, column)
	if col < 0 {
		return "", fmt.Errorf("table %s has no column %q", t.ID, column)
	}
	for _, row := range t.Rows {
		if len(row) > col && row[0] == rowKey {
			return row[col], nil
		}
	}
	return "", fmt.Errorf("table %s has no row %q", t.ID, rowKey)
}

func execTables(seed uint64, t *tracer) (*tablesRun, error) {
	out := &tablesRun{expWallS: map[string]float64{}}
	log := &jobLog{t: t}
	engine := harness.Engine{Workers: runtime.GOMAXPROCS(0), Replicas: 1}
	var planNs int64
	var probe *rtProbe
	if t != nil {
		probe = startRuntimeProbe()
	}
	events0 := harness.EventsProcessed()
	digest := sha256.New()
	var tables []*harness.Table
	t0, cpu0 := now(), cpuSeconds()
	for i, e := range harness.Experiments() {
		log.exp = uint64(i + 1)
		if t != nil {
			log.parent = t.newID()
		}
		start := now()
		tbl, err := engine.Run(instrument(e, seed, log, &planNs), harness.Full)
		end := now()
		if err != nil {
			// The engine fails fast: the jobs that errored are the
			// failed operations, the run has no tables.
			out.jobs, out.failed = log.wallNs, max(log.failed, 1)
			return out, err
		}
		out.expWallS[e.ID] = float64(end-start) / 1e9
		if t != nil {
			t.addSpan(Span{ID: log.parent, Name: "harness.Engine.Run " + e.ID, Node: -1, Op: log.exp, Start: start, End: end})
		}
		tables = append(tables, tbl)
		fmt.Fprintf(digest, "%s|%q|%q\n", tbl.ID, tbl.Header, tbl.Rows)
	}
	t1, cpu1 := now(), cpuSeconds()
	if t != nil {
		out.rtd = probe.stop()
	}
	// Plan building is the set-up; the rest of the Engine.Run calls is
	// the measured run.
	out.setupS = float64(planNs) / 1e9
	out.wallS = float64(t1-t0)/1e9 - out.setupS
	out.cpuS = cpu1 - cpu0
	out.events = harness.EventsProcessed() - events0
	out.digest = hex.EncodeToString(digest.Sum(nil))[:16]
	out.jobs, out.failed = log.wallNs, log.failed
	slices.Sort(out.jobs)
	if len(out.jobs) > 0 {
		out.heapPerJob = float64(heapAfterGC()) / float64(len(out.jobs))
		runtime.KeepAlive(tables)
	}

	// The paper's own units, read off the measured Table 1: the alg2 row.
	e1 := tables[0]
	for _, c := range []struct {
		column string
		dst    *float64
	}{{"msg/meal", &out.msgsPerCS}, {"RT static p95", &out.rtP95MS}} {
		cell, err := tableCell(e1, "alg2", c.column)
		if err != nil {
			return out, err
		}
		if *c.dst, err = leadingFloat(cell); err != nil {
			return out, fmt.Errorf("table E1, alg2 %s cell %q: %w", c.column, cell, err)
		}
	}
	return out, nil
}

func runTables(opt Options) (Result, error) {
	res := Result{Metrics: map[string]float64{}}
	budget := time.Duration(opt.Seconds * float64(time.Second))

	// Set-up probes: building the twelve plans takes about a millisecond.
	var setups []float64
	for i := 0; i < setupProbes && !opt.Traced; i++ {
		start := now()
		for _, e := range harness.Experiments() {
			if _, err := e.Plan(harness.Full, 1); err != nil {
				return res, err
			}
		}
		setups = append(setups, float64(now()-start)/1e9)
	}

	begin := time.Now()
	ref, err := execTables(opt.Seed, nil)
	if err != nil {
		res.Attempted, res.Failed = int64(len(ref.jobs)), ref.failed
		res.problemf("experiment failed: %v", err)
		return res, nil
	}
	lastRun := time.Since(begin)
	res.Digest = ref.digest
	res.Attempted, res.Failed = int64(len(ref.jobs)), ref.failed
	res.notef("%d fleet jobs per run (one seeded simulation of a table cell each), %d workers, replicas 1", len(ref.jobs), runtime.GOMAXPROCS(0))

	var t *tracer
	runs := []*tablesRun{ref}
	if opt.Traced {
		t = newTracer(0)
		runs = nil
		begin = time.Now()
	}
	for len(runs) == 0 || time.Since(begin)+lastRun/2 < budget {
		runBegin := time.Now()
		r, err := execTables(opt.Seed, t)
		if err != nil {
			res.Failed += r.failed
			res.problemf("experiment failed in a repeated run: %v", err)
			return res, nil
		}
		lastRun = time.Since(runBegin)
		if r.digest != ref.digest {
			res.problemf("tables digest %s of a repeated run differs from the first run's %s", r.digest, ref.digest)
		}
		runs = append(runs, r)
	}

	col := func(f func(*tablesRun) float64) float64 { return medianOf(runs, f) }
	wallS := col(func(r *tablesRun) float64 { return r.wallS })
	eventsPerS := col(func(r *tablesRun) float64 { return float64(r.events) / r.wallS })
	opt.logf("  tables_full: %d runs, median wall %.3fs, %d events, digest %s", len(runs), wallS, ref.events, ref.digest)

	m := res.Metrics
	if !opt.Traced {
		jobs := float64(len(ref.jobs))
		// Job latencies pooled over the runs: every run executes the same jobs.
		var pooled []int64
		for _, r := range runs {
			pooled = append(pooled, r.jobs...)
		}
		slices.Sort(pooled)
		tail := tailPercentile(len(pooled))
		res.notef("job wall time: %d samples; highest percentile with >=10 samples beyond it: p%g = %.0f us",
			len(pooled), tail*100, float64(percentile(pooled, tail))/1e3)
		for _, r := range runs {
			setups = append(setups, r.setupS)
		}
		m["setup_s"] = setupTime(&res, setups)
		m["acq_per_s"] = jobs / wallS
		m["grant_p50_us"] = float64(percentile(pooled, 0.50)) / 1e3
		m["grant_p99_us"] = float64(percentile(pooled, 0.99)) / 1e3
		m["cpu_ms_per_kacq"] = col(func(r *tablesRun) float64 { return r.cpuS * 1e3 / (jobs / 1e3) })
		m["msgs_per_cs"] = ref.msgsPerCS
		m["events_per_s"] = eventsPerS
		m["wall_s"] = wallS
		m["heap_bytes_per_node"] = col(func(r *tablesRun) float64 { return r.heapPerJob })
		m["rt_p95_ms"] = ref.rtP95MS
		return res, nil
	}

	last := runs[len(runs)-1]
	for id := range ref.expWallS {
		m["harness.exp_wall_s."+id] = col(func(r *tablesRun) float64 { return r.expWallS[id] })
	}
	cpuS := col(func(r *tablesRun) float64 { return r.cpuS })
	totalS := col(func(r *tablesRun) float64 { return r.wallS + r.setupS })
	m["harness.events_total"] = float64(ref.events)
	m["fleet.worker_utilisation"] = cpuS / (totalS * float64(runtime.GOMAXPROCS(0)))
	setRuntimeMetrics(m, last.rtd, float64(last.events), last.cpuS)
	m["bench.trace_overhead_x"] = (float64(ref.events) / ref.wallS) / eventsPerS
	m["bench.failed_share"] = float64(res.Failed) / float64(max(res.Attempted, 1))
	schedulerProbe(m)
	res.notef("core.* reads 0 here: harness builds its protocols inside the plans, out of the decorators' reach")
	note := "one span per harness.Engine.Run and, under it, one per fleet job (op = experiment number); times in ns since process start"
	return res, writeTrace(opt, "tables_full", note, t)
}
