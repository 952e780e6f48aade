package manet_test

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"

	"lme/internal/core"
	"lme/internal/graph"
	"lme/internal/lme1"
	"lme/internal/manet"
	"lme/internal/sim"
)

// goldenTraceHash is the SHA-256 of the full JSONL event stream of the
// scenario below, recorded on the pre-optimization substrate (container
// heap, brute-force link scans, per-call sorted-map adjacency). The
// substrate optimizations must preserve it bit for bit: same seed, same
// trace. Regenerate deliberately (and only with a changelog entry) by
// running this test with -run TestGoldenTraceHash -v after an intentional
// semantic change; the failure message prints the new hash.
//
// Regenerated for the span layer: per-node send sequence numbers
// ("mseq") on send/deliver/drop events, and doorway "enter"/"abort"
// events bracketing lme1's BeginEntry/Abort calls.
//
// Regenerated for the region-sharded engine: message delays, waypoint
// draws and workload think times now come from per-node random streams
// (instead of one shared scheduler stream), and events execute in the
// canonical (time, owner, class, …) key order — the construction that
// makes runs bit-identical across tile grids and worker counts.
// Recorded on the single-heap engine the tile engine replaced, this hash
// is reproduced exactly by the 1×1 grid the scenario runs on, and every
// other grid reproduces that grid's stream (see sharded_test.go).
const goldenTraceHash = "4399863567ac1281cf86c93576a42cdec7948c626db996c8fd769699cd90a8c3"

// runGoldenScenario builds and runs a fixed mid-size scenario that
// exercises every substrate path: initial topology, waypoint mobility
// with link churn, protocol messaging (lme1 doorways, forks,
// recolouring), a mid-flight crash, and a hungry/exit workload. The JSONL
// encoding of every published event goes to sink (a hash for the golden
// test, a file for TestDumpGoldenTrace).
func runGoldenScenario(t *testing.T, sink io.Writer) {
	t.Helper()
	runGoldenScenarioCfg(t, sink, nil)
}

// runGoldenScenarioCfg is runGoldenScenario with a config hook, so the
// telemetry-invariance test can flip out-of-band knobs (telemetry
// collection, tiling) and pin that the recorded stream never moves.
func runGoldenScenarioCfg(t *testing.T, sink io.Writer, mutate func(*manet.Config)) {
	t.Helper()
	cfg := manet.DefaultConfig()
	cfg.Seed = 2026
	cfg.Radius = 0.28
	if mutate != nil {
		mutate(&cfg)
	}
	w := manet.NewWorld(cfg)
	w.Bus().SetSink(sink)

	pos := sim.NewRand(0xfeed)
	const n = 14
	for i := 0; i < n; i++ {
		id := w.AddNode(graph.Point{X: pos.Float64(), Y: pos.Float64()})
		w.SetProtocol(id, lme1.New(lme1.Config{Variant: lme1.VariantGreedy}))
	}
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	manet.Waypoint{Speed: 0.35, PauseMin: 5_000, PauseMax: 40_000}.
		Attach(w, []core.NodeID{1, 4, 7})
	w.CrashAt(5, 600_000)

	// Workload: every 50ms, thinking nodes request the critical section
	// and eating nodes leave it.
	var cycle func()
	cycle = func() {
		for id := 0; id < n; id++ {
			if w.Crashed(core.NodeID(id)) {
				continue
			}
			p := w.Protocol(core.NodeID(id))
			switch p.State() {
			case core.Thinking:
				p.BecomeHungry()
			case core.Eating:
				p.ExitCS()
			}
		}
		w.At(w.Now()+50_000, cycle)
	}
	w.At(10_000, cycle)

	if err := w.RunUntil(1_500_000, 5_000_000); err != nil {
		t.Fatal(err)
	}
	if err := w.Bus().Flush(); err != nil {
		t.Fatal(err)
	}
}

// goldenScenario returns the SHA-256 of the scenario's event stream.
func goldenScenario(t *testing.T) string {
	t.Helper()
	h := sha256.New()
	runGoldenScenario(t, h)
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenTraceHash pins the full event sequence of a fixed
// seed/scenario: the determinism regression guarding the scheduler and
// link-index swaps. A mismatch means same-seed runs no longer reproduce
// the pre-optimization trace.
func TestGoldenTraceHash(t *testing.T) {
	got := goldenScenario(t)
	if got != goldenTraceHash {
		t.Fatalf("golden trace hash changed:\n got  %s\n want %s\n"+
			"the substrate no longer reproduces the recorded event stream bit for bit",
			got, goldenTraceHash)
	}
}

// TestGoldenTraceHashTelemetryOn pins the out-of-band contract at the
// strongest oracle we have: collecting execution telemetry must
// reproduce the recorded golden stream bit for bit. (The scenario runs
// on the 1×1 grid; larger grids are covered by TestTelemetryInvariance's
// byte-level diffs.)
func TestGoldenTraceHashTelemetryOn(t *testing.T) {
	h := sha256.New()
	runGoldenScenarioCfg(t, h, func(cfg *manet.Config) { cfg.Telemetry = true })
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenTraceHash {
		t.Fatalf("telemetry collection changed the golden trace:\n got  %s\n want %s",
			got, goldenTraceHash)
	}
}
