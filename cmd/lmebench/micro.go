package main

// lmebench -micro: the two ratio rows with a gate, run through
// testing.Benchmark. EndToEndDark/EndToEndObserved price full
// observability on a churning 64-node world (observed_vs_dark);
// TelemetryFold prices engine telemetry on the sharded window loop
// (telemetry_vs_dark, budgeted under -check). The layer-by-layer ledger
// lives elsewhere: lmeperf's traced pass (bench/), lmebench -scale and
// the zero-allocation tests beside each hot path.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"lme/internal/core"
	"lme/internal/graph"
	"lme/internal/manet"
	"lme/internal/metrics"
	"lme/internal/sim"
	"lme/internal/span"
)

// MicroSchema identifies the lmebench -micro -json layout; bump on
// breaking changes. v2 keeps only the gated rows.
const MicroSchema = "lme/microbench/v2"

// microResult is one microbenchmark's measurement, mirroring the columns
// `go test -bench` prints.
type microResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Extras carries custom b.ReportMetric units (TelemetryFold's
	// "overhead_x").
	Extras map[string]float64 `json:"extras,omitempty"`
}

// microDoc is the lmebench -micro -json document (the layout of
// BENCH_micro.json). ObservedVsDark is the EndToEndObserved/EndToEndDark
// ns/op ratio — the end-to-end price of full observability.
type microDoc struct {
	Schema         string        `json:"schema"`
	Results        []microResult `json:"results"`
	ObservedVsDark float64       `json:"observed_vs_dark,omitempty"`
	// TelemetryVsDark is TelemetryFold's interleaved-slab overhead ratio
	// (telemetry-on ns / telemetry-off ns over alternating 5ms slabs of
	// identical worlds) — the whole price of engine telemetry on the
	// sharded window loop. -check fails when it exceeds
	// telemetryOverheadBudget.
	TelemetryVsDark float64 `json:"telemetry_vs_dark,omitempty"`
}

// telemetryOverheadBudget caps TelemetryVsDark under -check: telemetry
// collection may cost at most 2% of the sharded window loop. The two
// worlds run back to back in one process, so the ratio is far less noisy
// than cross-run ns/op comparisons.
const telemetryOverheadBudget = 1.02

// microBenchmarks lists the rows in reporting order.
var microBenchmarks = []struct {
	name string
	fn   func(b *testing.B)
}{
	{"EndToEndDark", func(b *testing.B) { runEndToEnd(b, endToEndWorld(b, false)) }},
	{"EndToEndObserved", func(b *testing.B) { runEndToEnd(b, endToEndWorld(b, true)) }},
	{"TelemetryFold", telemetryFold},
}

// runMicro runs the rows via testing.Benchmark and reports ns/op and
// allocs/op. When baseline names a committed BENCH_micro.json, the fresh
// numbers are compared against it and large regressions fail the run.
func runMicro(jsonOut bool, baseline string, tol float64) error {
	doc := microDoc{Schema: MicroSchema, Results: []microResult{}}
	for _, bench := range microBenchmarks {
		r := testing.Benchmark(bench.fn)
		res := microResult{
			Name:        bench.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			Extras:      r.Extra,
		}
		doc.Results = append(doc.Results, res)
		if !jsonOut {
			fmt.Printf("%-18s %12d ops %12.1f ns/op %8d B/op %6d allocs/op\n",
				res.Name, res.Iterations, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
		}
	}
	dark, observed := doc.Results[0].NsPerOp, doc.Results[1].NsPerOp
	if dark > 0 {
		doc.ObservedVsDark = observed / dark
	}
	doc.TelemetryVsDark = doc.Results[2].Extras["overhead_x"]
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			return err
		}
	} else {
		fmt.Printf("observed-vs-dark   %.2fx (dark %.1f ns/op, observed %.1f ns/op)\n",
			doc.ObservedVsDark, dark, observed)
		fmt.Printf("telemetry-vs-dark  %.3fx (interleaved slabs, budget %.2fx)\n",
			doc.TelemetryVsDark, telemetryOverheadBudget)
	}
	if baseline != "" {
		return checkMicro(doc, baseline, tol)
	}
	return nil
}

// checkMicro compares fresh numbers against the committed baseline's
// results. ns/op may grow by the tolerance factor before the check fails
// — shared machines are noisy, so this is a smoke detector for
// order-of-magnitude regressions, not a tachometer. allocs/op is compared
// near-exactly (one alloc of slack, or 2% of a baseline that already
// allocates heavily). telemetry_vs_dark must stay within its budget.
func checkMicro(doc microDoc, baseline string, tol float64) error {
	raw, err := os.ReadFile(baseline)
	if err != nil {
		return fmt.Errorf("-check: %w", err)
	}
	var base microDoc
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("-check: parse %s: %w", baseline, err)
	}
	want := make(map[string]microResult, len(base.Results))
	for _, r := range base.Results {
		want[r.Name] = r
	}
	var regressions []string
	for _, r := range doc.Results {
		b, ok := want[r.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "check: %-18s no baseline (new benchmark), skipped\n", r.Name)
			continue
		}
		status := "ok"
		allocSlack := max(b.AllocsPerOp+1, b.AllocsPerOp+b.AllocsPerOp/50)
		if b.NsPerOp > 0 && r.NsPerOp > b.NsPerOp*tol {
			status = fmt.Sprintf("REGRESSION: %.1f ns/op vs baseline %.1f (>%.1fx)", r.NsPerOp, b.NsPerOp, tol)
		} else if r.AllocsPerOp > allocSlack {
			status = fmt.Sprintf("REGRESSION: %d allocs/op vs baseline %d", r.AllocsPerOp, b.AllocsPerOp)
		}
		fmt.Fprintf(os.Stderr, "check: %-18s %s\n", r.Name, status)
		if status != "ok" {
			regressions = append(regressions, r.Name)
		}
	}
	status := "ok"
	if doc.TelemetryVsDark > telemetryOverheadBudget {
		status = fmt.Sprintf("REGRESSION: %.3fx vs the %.2fx budget", doc.TelemetryVsDark, telemetryOverheadBudget)
		regressions = append(regressions, "telemetry-vs-dark")
	}
	fmt.Fprintf(os.Stderr, "check: %-18s %s (%.3fx)\n", "telemetry-vs-dark", status, doc.TelemetryVsDark)
	if len(regressions) > 0 {
		return fmt.Errorf("-check: %d benchmark(s) regressed vs %s: %s",
			len(regressions), baseline, strings.Join(regressions, ", "))
	}
	return nil
}

// nullProto is a protocol that observes everything and does nothing; it
// keeps the end-to-end pair focused on the substrate and its observers.
type nullProto struct {
	env core.Env
}

func (p *nullProto) Init(env core.Env)                   { p.env = env }
func (p *nullProto) OnMessage(core.NodeID, core.Message) {}
func (p *nullProto) OnLinkUp(core.NodeID, bool)          {}
func (p *nullProto) OnLinkDown(core.NodeID)              {}
func (p *nullProto) BecomeHungry()                       {}
func (p *nullProto) ExitCS()                             {}
func (p *nullProto) State() core.State                   { return core.Thinking }

// endToEndWorld builds the observed-vs-dark scenario: a 64-node world in
// which a rotating node broadcasts and cycles its dining state every 2ms
// of virtual time — the send/deliver/state stream of a saturated protocol
// run. observe=false runs dark (no ring, no subscribers, no sink);
// observe=true attaches the full observability stack of an instrumented
// run: retained ring, metrics registry, span collector and a JSONL sink.
func endToEndWorld(b *testing.B, observe bool) *manet.World {
	cfg := manet.DefaultConfig()
	cfg.Seed = 17
	cfg.Radius = 0.2
	if observe {
		cfg.TraceRing = 4096
	}
	w := manet.NewWorld(cfg)
	protos := make([]*nullProto, 64)
	r := sim.NewRand(5)
	for i := range protos {
		protos[i] = &nullProto{}
		id := w.AddNode(graph.Point{X: r.Float64(), Y: r.Float64()})
		w.SetProtocol(id, protos[i])
	}
	if observe {
		reg := metrics.NewRegistry()
		metrics.Instrument(w.Bus(), reg, w.TypeNamer())
		col := span.New()
		col.Attach(w.Bus())
		w.Bus().SetSink(io.Discard)
	}
	if err := w.Start(); err != nil {
		b.Fatal(err)
	}
	var payload struct{ A, B int64 }
	i := 0
	var tick func()
	tick = func() {
		p := protos[i%len(protos)]
		switch i % 3 {
		case 0:
			p.env.SetState(core.Hungry)
		case 1:
			p.env.Broadcast(payload)
			p.env.SetState(core.Eating)
		case 2:
			p.env.SetState(core.Thinking)
		}
		i++
		w.ScheduleLocal(core.NodeID(i%len(protos)), 2_000, tick)
	}
	w.ScheduleLocal(0, 1_000, tick)
	return w
}

// runEndToEnd is the pair's measurement loop: one op is 100ms of virtual
// time.
func runEndToEnd(b *testing.B, w *manet.World) {
	const chunk = sim.Time(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.RunUntil(w.Now()+chunk, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := w.Bus().Flush(); err != nil {
		b.Fatal(err)
	}
}

// pingProto keeps one message ping-ponging on every edge forever: Init
// sends to each higher-id neighbour (one token per edge), and every
// delivery is answered — a uniform storm that keeps every tile's heap
// busy without any protocol logic in the profile.
type pingProto struct {
	env core.Env
}

type pingMsg struct{}

func (p *pingProto) Init(env core.Env) {
	p.env = env
	me := env.ID()
	for _, nb := range env.Neighbors() {
		if nb > me {
			env.Send(nb, pingMsg{})
		}
	}
}
func (p *pingProto) OnMessage(from core.NodeID, msg core.Message) { p.env.Send(from, pingMsg{}) }
func (p *pingProto) OnLinkUp(core.NodeID, bool)                   {}
func (p *pingProto) OnLinkDown(core.NodeID)                       {}
func (p *pingProto) BecomeHungry()                                {}
func (p *pingProto) ExitCS()                                      {}
func (p *pingProto) State() core.State                            { return core.Thinking }

// stormWorld is the 1000-node lattice (radius 1.45× the spacing, δ = 8
// inside) running the ping storm on the sharded engine with two workers,
// so the parallel window/barrier path runs even on one core.
func stormWorld(b *testing.B, telemetry bool) *manet.World {
	const n = 1_000
	cfg := manet.DefaultConfig()
	cfg.Seed = 1
	side := 1
	for side*side < n {
		side++
	}
	spacing := 1.0 / float64(side)
	cfg.Radius = 1.45 * spacing
	cfg.Tiles = manet.AutoTiles(n)
	cfg.ShardWorkers = 2
	cfg.Telemetry = telemetry
	w := manet.NewWorld(cfg)
	for i := 0; i < n; i++ {
		id := w.AddNode(graph.Point{
			X: (float64(i%side) + 0.5) * spacing,
			Y: (float64(i/side) + 0.5) * spacing,
		})
		w.SetProtocol(id, &pingProto{})
	}
	if err := w.Start(); err != nil {
		b.Fatal(err)
	}
	return w
}

// telemetryFold prices engine telemetry: two identical storm worlds —
// telemetry off and on — advance in interleaved 5ms slabs, each slab
// timed separately. Interleaving makes the ratio robust against clock
// drift, GC pressure and frequency scaling; the "overhead_x" extra
// (telemetry ns / dark ns) is the whole price of the per-window fold.
func telemetryFold(b *testing.B) {
	dark, tel := stormWorld(b, false), stormWorld(b, true)
	const chunk = sim.Time(5_000)
	// Warm both worlds past the initial link-up storm so the measured
	// slabs see the same steady state, and start from a clean heap.
	for i := 0; i < 10; i++ {
		if err := dark.RunUntil(dark.Now()+chunk, 0); err != nil {
			b.Fatal(err)
		}
		if err := tel.RunUntil(tel.Now()+chunk, 0); err != nil {
			b.Fatal(err)
		}
	}
	runtime.GC()
	var darkNS, telNS int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if err := dark.RunUntil(dark.Now()+chunk, 0); err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		if err := tel.RunUntil(tel.Now()+chunk, 0); err != nil {
			b.Fatal(err)
		}
		darkNS += t1.Sub(t0).Nanoseconds()
		telNS += time.Since(t1).Nanoseconds()
	}
	b.StopTimer()
	if darkNS > 0 {
		b.ReportMetric(float64(telNS)/float64(darkNS), "overhead_x")
	}
}
