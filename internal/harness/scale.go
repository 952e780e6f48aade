package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"lme/internal/core"
	"lme/internal/graph"
	"lme/internal/manet"
	"lme/internal/sim"
	"lme/internal/telemetry"
	"lme/internal/workload"
)

// ScaleSchema identifies the lmebench -scale JSON layout; bump on
// breaking changes.
const ScaleSchema = "lme/scale/v1"

// ScaleSpec configures one large-n scale run.
type ScaleSpec struct {
	// N is the node count; the layout is the smallest square lattice
	// holding N nodes, radius 1.45× the spacing (interior degree δ=8).
	N int
	// Seed drives every random choice of the run.
	Seed uint64
	// Horizon is the virtual-time span of the run (µs). The lattice
	// centre node crashes at Horizon/3.
	Horizon sim.Time
	// Tiles/Workers shape the engine (0 tiles = AutoTiles for N;
	// 1 = one tile, the reference; workers 0 = GOMAXPROCS).
	Tiles   int
	Workers int
	// Telemetry collects the engine's execution telemetry and attaches
	// it to the result as extras. Never part of ResultHash: two runs of
	// the same (N, Seed, Horizon) hash identically with it on or off.
	Telemetry bool
}

// ScaleResult is one run's measurement. Every field except the wall-clock
// ones (WallMS, EventsPerSec) is deterministic for a given (N, Seed,
// Horizon) — independent of tiles and worker count — and is folded into
// ResultHash.
type ScaleResult struct {
	N       int      `json:"n"`
	Tiles   int      `json:"tiles"`
	Workers int      `json:"workers"`
	Seed    uint64   `json:"seed"`
	Horizon sim.Time `json:"horizon_us"`

	Events       uint64  `json:"events"`
	Meals        int     `json:"meals"`
	MessagesSent uint64  `json:"messages_sent"`
	RTMeanUS     float64 `json:"rt_mean_us"`
	RTP50US      float64 `json:"rt_p50_us"`
	RTP95US      float64 `json:"rt_p95_us"`
	RTMaxUS      float64 `json:"rt_max_us"`
	CrashVictim  int     `json:"crash_victim"`
	Starved      int     `json:"starved"`
	FLRadius     int     `json:"fl_radius_hops"`
	Violations   int     `json:"violations"`

	WallMS       float64 `json:"wall_ms"`
	EventsPerSec float64 `json:"events_per_sec"`
	HeapBPerNode float64 `json:"heap_bytes_per_node"`
	ResultHash   string  `json:"result_hash"`

	// Telemetry is the engine's lme/telemetry/v1 record (per-tile
	// breakdown, imbalance, window/stall sketches) when ScaleSpec asked
	// for it. Extras only: like the wall-clock fields it never enters
	// ResultHash, so telemetry on/off runs hash identically.
	Telemetry *telemetry.EngineStats `json:"telemetry,omitempty"`
}

// ScaleDoc is the lmebench -scale JSON document.
type ScaleDoc struct {
	Schema  string        `json:"schema"`
	Results []ScaleResult `json:"results"`
}

// scalePoints is the lattice layout shared by the scale runs and the
// microbenchmarks: side×side cells over the unit square, one node per
// cell centre.
func scalePoints(n int) ([]graph.Point, float64) {
	side := 1
	for side*side < n {
		side++
	}
	spacing := 1.0 / float64(side)
	pts := make([]graph.Point, 0, n)
	for i := 0; i < n; i++ {
		pts = append(pts, graph.Point{
			X: (float64(i%side) + 0.5) * spacing,
			Y: (float64(i/side) + 0.5) * spacing,
		})
	}
	return pts, 1.45 * spacing
}

// RunScale executes one large-n run and returns its measurement. The
// scenario attaches no trace ring and no spans (checker, recorder and
// prober only, so no traffic event is built) and runs Algorithm 1
// greedy — the variant whose per-node state is O(δ), the only kind that
// survives n=100k.
func RunScale(spec ScaleSpec) (ScaleResult, error) {
	pts, radius := scalePoints(spec.N)
	tiles := spec.Tiles
	if tiles == 0 {
		tiles = manet.AutoTiles(spec.N)
	}
	// Crash the lattice centre at Horizon/3: the failure-locality census
	// then measures how far its blast radius reaches in hops.
	side := 1
	for side*side < spec.N {
		side++
	}
	victim := core.NodeID((side/2)*side + side/2)
	if int(victim) >= spec.N {
		victim = core.NodeID(spec.N / 2)
	}
	crashAt := spec.Horizon / 3

	start := time.Now()
	r, err := Scenario{
		Alg: "alg1-greedy",
		Spec: Spec{
			Seed:         spec.Seed,
			Points:       pts,
			Radius:       radius,
			Workload:     workload.DefaultConfig(),
			Tiles:        tiles,
			ShardWorkers: spec.Workers,
			Telemetry:    spec.Telemetry,
		},
		Crashes: []Crash{{victim, crashAt}},
		Horizon: spec.Horizon,
	}.RunSafe(context.Background())
	if err != nil {
		return ScaleResult{}, err
	}
	wall := time.Since(start)

	events := r.World.Processed()
	stats := r.Ledger.Stats()
	// The E1/E2 census: starved = nothing eaten in the last two thirds
	// of the post-crash window.
	starved, fl := crashCensus(r, victim, crashAt, spec.Horizon)
	res := ScaleResult{
		N: spec.N, Tiles: tiles, Workers: spec.Workers,
		Seed: spec.Seed, Horizon: spec.Horizon,
		Events:       events,
		Meals:        r.TotalMeals(),
		MessagesSent: r.World.MessagesSent(),
		RTMeanUS:     float64(stats.Mean),
		RTP50US:      float64(stats.P50),
		RTP95US:      float64(stats.P95),
		RTMaxUS:      float64(stats.Max),
		CrashVictim:  int(victim),
		Starved:      len(starved),
		FLRadius:     fl,
		Violations:   len(r.Checker.Violations()),
		WallMS:       float64(wall.Microseconds()) / 1000,
	}
	if secs := wall.Seconds(); secs > 0 {
		res.EventsPerSec = float64(events) / secs
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.HeapBPerNode = float64(ms.HeapAlloc) / float64(spec.N)
	res.ResultHash = res.hash()
	res.Telemetry = r.World.EngineTelemetry()
	return res, nil
}

// hash digests the deterministic fields — everything the engine contract
// promises is identical across tile grids and worker counts. Two runs of
// the same (N, Seed, Horizon) with different -tiles or -shard-workers
// must print the same result_hash; CI greps for exactly that.
func (r ScaleResult) hash() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|n=%d|seed=%d|horizon=%d|events=%d|meals=%d|msgs=%d|rt=%.0f/%.0f/%.0f/%.0f|victim=%d|starved=%d|fl=%d|viol=%d",
		ScaleSchema, r.N, r.Seed, r.Horizon, r.Events, r.Meals, r.MessagesSent,
		r.RTMeanUS, r.RTP50US, r.RTP95US, r.RTMaxUS,
		r.CrashVictim, r.Starved, r.FLRadius, r.Violations)
	return hex.EncodeToString(h.Sum(nil))
}

// RunScaleSweep runs the sweep over node counts and writes the JSON
// document to out (with progress lines to logw when non-nil).
func RunScaleSweep(ns []int, seed uint64, horizon sim.Time, tiles, workers int, tel bool, out, logw io.Writer) error {
	doc := ScaleDoc{Schema: ScaleSchema, Results: []ScaleResult{}}
	for _, n := range ns {
		res, err := RunScale(ScaleSpec{
			N: n, Seed: seed, Horizon: horizon, Tiles: tiles, Workers: workers,
			Telemetry: tel,
		})
		if err != nil {
			return fmt.Errorf("scale n=%d: %w", n, err)
		}
		doc.Results = append(doc.Results, res)
		if logw != nil {
			fmt.Fprintf(logw,
				"scale n=%-7d tiles=%2d×%-2d %10.0f events/s  %6.0f B/node  meals=%-8d rt_p95=%.1fms  fl=%d hops  wall=%.0fms\n",
				res.N, res.Tiles, res.Tiles, res.EventsPerSec, res.HeapBPerNode,
				res.Meals, res.RTP95US/1000, res.FLRadius, res.WallMS)
		}
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
