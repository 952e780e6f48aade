package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"sync"
	"testing"
	"time"

	"lme/internal/core"
	"lme/internal/graph"
	"lme/internal/livenet"
	"lme/internal/lme1"
	"lme/internal/manet"
	"lme/internal/sim"
	"lme/internal/wire"
)

// traceHash runs a 64-node mobile world (waypoint movers, one crash, a
// hungry/exit cycle) and hashes the JSONL of every published event. With
// a tracer every protocol runs behind the decorator.
func traceHash(t *testing.T, tr *tracer) string {
	t.Helper()
	cfg := manet.DefaultConfig()
	cfg.Seed, cfg.Radius, cfg.Tiles = 7, 0.2, 2
	w := manet.NewWorld(cfg)
	h := sha256.New()
	w.Bus().SetSink(h)
	const n = 64
	pos := sim.NewScheduler(0xbe7c).Rand()
	for i := 0; i < n; i++ {
		id := w.AddNode(graph.Point{X: pos.Float64(), Y: pos.Float64()})
		var p core.Protocol = lme1.New(lme1.Config{Variant: lme1.VariantGreedy})
		if tr != nil {
			p = tr.wrapProtocol(id, p)
		}
		w.SetProtocol(id, p)
	}
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	manet.Waypoint{Speed: 0.4, PauseMin: 5_000, PauseMax: 40_000}.Attach(w, []core.NodeID{1, 9, 17, 33})
	w.CrashAt(5, 300_000)
	for id := core.NodeID(0); id < n; id++ {
		id := id
		var cycle func()
		cycle = func() {
			if p := w.Protocol(id); p.State() == core.Thinking {
				p.BecomeHungry()
			} else if p.State() == core.Eating {
				p.ExitCS()
			}
			w.ScheduleLocal(id, 20_000, cycle)
		}
		w.ScheduleLocal(id, sim.Time(1_000+int(id)*300), cycle)
	}
	if err := w.RunUntil(600_000, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Bus().Flush(); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// The Protocol decorator (and the Env decorator it installs) must be
// invisible to the run: same seed, same trace bytes.
func TestProtocolDecoratorKeepsTraceHash(t *testing.T) {
	plain := traceHash(t, nil)
	tr := newTracer(64)
	tr.measuring.Store(true)
	if decorated := traceHash(t, tr); decorated != plain {
		t.Fatalf("trace hash changed under the decorator: %s, want %s", decorated, plain)
	}
	var calls, links uint64
	var busy, env int64
	for i := range tr.nodes {
		for _, c := range tr.nodes[i].calls {
			calls += c
		}
		links += tr.nodes[i].calls[kLinkUp] + tr.nodes[i].calls[kLinkDown]
		busy += tr.nodes[i].busyNs
		env += tr.nodes[i].envNs
	}
	if calls == 0 || links == 0 || env <= 0 || busy < env {
		t.Fatalf("decorator recorded calls=%d link events=%d busy=%dns env=%dns", calls, links, busy, env)
	}
}

// benchMsg is the payload of the transport test, with a codec so the UDP
// transport can carry it.
type benchMsg struct{ N int }

func init() {
	wire.Register(wire.Codec{
		ID: 0x7FBE, Name: "bench.test", Proto: benchMsg{},
		Append: func(buf []byte, m core.Message) []byte { return wire.AppendVarint(buf, int64(m.(benchMsg).N)) },
		Decode: func(b []byte) (core.Message, error) {
			r := wire.NewReader(b)
			n := r.Varint()
			return benchMsg{N: int(n)}, r.Done()
		},
	})
}

// The Transport decorator must keep FIFO and exactly-once on both
// transports, see every frame, and forward Stats().
func TestTransportDecoratorKeepsContract(t *testing.T) {
	g := graph.Ring(4)
	makers := map[string]func() livenet.Transport{
		"channel": func() livenet.Transport { return livenet.NewChannelTransport(g, 200*time.Microsecond, 1) },
		"udp": func() livenet.Transport {
			u, err := livenet.NewUDPTransport(g, 0)
			if err != nil {
				t.Fatal(err)
			}
			return u
		},
	}
	const perLink = 300
	links := [][2]core.NodeID{{0, 1}, {1, 0}, {2, 3}, {3, 0}}
	for name, mk := range makers {
		t.Run(name, func(t *testing.T) {
			tr := newTracer(4)
			tr.measuring.Store(true)
			d := tr.wrapTransport(mk(), g)
			var mu sync.Mutex
			got := map[[2]core.NodeID][]int{}
			total := 0
			done := make(chan struct{})
			err := d.Start(func(f livenet.Frame) {
				mu.Lock()
				defer mu.Unlock()
				key := [2]core.NodeID{f.From, f.To}
				got[key] = append(got[key], f.Msg.(benchMsg).N)
				if total++; total == perLink*len(links) {
					close(done)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for _, l := range links {
				wg.Add(1)
				go func(from, to core.NodeID) {
					defer wg.Done()
					for n := 0; n < perLink; n++ {
						d.Send(livenet.Frame{From: from, To: to, Msg: benchMsg{N: n}, Mseq: uint64(n) + 1})
					}
				}(l[0], l[1])
			}
			wg.Wait()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatalf("delivered %d of %d frames", total, perLink*len(links))
			}
			stats := d.Stats()
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			for _, l := range links {
				seq := got[l]
				if len(seq) != perLink || !slices.IsSorted(seq) || seq[0] != 0 || seq[perLink-1] != perLink-1 {
					t.Fatalf("link %v: %d frames, sorted=%v — FIFO/exactly-once broken behind the decorator", l, len(seq), slices.IsSorted(seq))
				}
				lt := d.links[l]
				if lt.delivered != perLink || lt.transit.n != perLink || len(lt.pending) != 0 {
					t.Fatalf("link %v: decorator saw %d deliveries, %d transits, %d still pending", l, lt.delivered, lt.transit.n, len(lt.pending))
				}
			}
			if b := d.contractBreaches(); b != 0 {
				t.Fatalf("decorator counted %d contract breaches on a healthy transport", b)
			}
			if stats.Kind != name || stats.FramesSent != perLink*uint64(len(links)) {
				t.Fatalf("Stats() not forwarded: kind %q, %d frames sent", stats.Kind, stats.FramesSent)
			}
			if sends := tr.nodes[0].sendCalls; sends != perLink {
				t.Fatalf("node 0: %d sends recorded, want %d", sends, perLink)
			}
		})
	}
}

// A delivery the sender never made, or one out of order, is a breach.
func TestTransportDecoratorCountsBreaches(t *testing.T) {
	g := graph.Line(2)
	tr := newTracer(2)
	d := tr.wrapTransport(livenet.NewChannelTransport(g, time.Millisecond, 1), g)
	d.deliver = func(livenet.Frame) {}
	d.onDeliver(livenet.Frame{From: 0, To: 1, Mseq: 5}) // never sent
	d.links[[2]core.NodeID{0, 1}].pending[3] = now()
	d.onDeliver(livenet.Frame{From: 0, To: 1, Mseq: 3}) // after 5: out of order
	if b := d.contractBreaches(); b != 2 {
		t.Fatalf("breaches = %d, want 2", b)
	}
}

func TestPercentileAndMedianHelpers(t *testing.T) {
	xs := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		p    float64
		want int64
	}{{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.01, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of nothing is not 0")
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	// One stalled second does not move the bucket median.
	if got := bucketMedian([]int64{100, 101, 99, 3, 100}); got != 100 {
		t.Errorf("bucketMedian = %v", got)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {20, 0.5}, {100, 0.9}, {1000, 0.99}, {288_477, 0.9999}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// Python: statistics.quantiles([1, 2, 4, 7, 11, 16], n=4) == [1.75, 5.5, 12.25].
	if got, want := spread([]float64{1, 2, 4, 7, 11, 16}), (12.25-1.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestLogHistQuantileWithinSixPercent(t *testing.T) {
	var h, other logHist
	var exact []int64
	v := int64(3)
	for i := 0; i < 5000; i++ {
		v = v*1103515245%2147483647 + 12345
		x := v % 5_000_000
		exact = append(exact, x)
		if i%2 == 0 {
			h.add(x)
		} else {
			other.add(x)
		}
	}
	h.merge(&other)
	slices.Sort(exact)
	for _, p := range []float64{0.5, 0.9, 0.99} {
		got, want := h.quantile(p), float64(percentile(exact, p))
		if math.Abs(got-want)/want > 0.0625 {
			t.Errorf("p%g: histogram %v, exact %v", p*100, got, want)
		}
	}
	for _, x := range []int64{0, 1, 7, 8, 9, 1023, 1 << 39, math.MaxInt64} {
		if i := histIndex(x); i < 0 || i >= histBuckets {
			t.Errorf("histIndex(%d) = %d out of range", x, i)
		}
	}
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// BENCHMARK.json declares exactly what the command prints (the command
// prints the catalogue), within the limits of the driver's contract.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != RunSeconds {
		t.Errorf("run_seconds %d, catalogue %d", doc.RunSeconds, RunSeconds)
	}
	if !slices.Equal(doc.Paths, []string{"bench"}) || !slices.Equal(doc.Command, []string{"go", "run", "-C", "bench", "./cmd/lmeperf"}) {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(doc.Workloads) != len(Workloads) {
		t.Fatalf("%d workloads declared, %d in the catalogue", len(doc.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: declared %+v, catalogue %+v", i, doc.Workloads[i], w)
		}
		if len([]rune(w.Why)) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len([]rune(w.Why)))
		}
		name(w.Name)
	}
	if len(doc.EndToEnd) != len(EndToEnd) || len(doc.PerLayer) != len(PerLayer) {
		t.Fatalf("declared %d+%d metrics, catalogue %d+%d", len(doc.EndToEnd), len(doc.PerLayer), len(EndToEnd), len(PerLayer))
	}
	direction := func(b string) bool { return b == "lower" || b == "higher" }
	setup := false
	for i, m := range EndToEnd {
		d := doc.EndToEnd[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better || d.Bound != m.Bound {
			t.Errorf("end-to-end %d: declared %+v, catalogue %+v", i, d, m)
		}
		if !unitRE.MatchString(m.Unit) || !direction(m.Better) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s outside the contract: %+v", m.Name, m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		name(m.Name)
	}
	if !setup {
		t.Error("no setup_s metric")
	}
	for i, m := range PerLayer {
		d := doc.PerLayer[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("per-layer %d: declared %+v, catalogue %+v", i, d, m)
		}
		if !unitRE.MatchString(m.Unit) || !direction(m.Better) || m.Moves == "" || m.Doc == "" {
			t.Errorf("per-layer %s outside the contract or undocumented: %+v", m.Name, m)
		}
		name(m.Name)
	}
}

// finish makes a pass print exactly the catalogue's names, and refuses an
// end-to-end metric that is missing or 0.
func TestFinishEmitsExactlyTheCatalogue(t *testing.T) {
	traced := Result{Traced: true, Attempted: 1, Metrics: map[string]float64{"core.handler_calls": 3}}
	traced.finish()
	if len(traced.Metrics) != len(PerLayer) || !traced.Correct {
		t.Fatalf("traced pass: %d metrics (catalogue %d), correct=%v %v", len(traced.Metrics), len(PerLayer), traced.Correct, traced.Problems)
	}
	untraced := Result{Attempted: 1, Metrics: map[string]float64{}}
	for _, m := range EndToEnd {
		untraced.Metrics[m.Name] = 1
	}
	untraced.finish()
	if !untraced.Correct || len(untraced.Metrics) != len(EndToEnd) {
		t.Fatalf("complete untraced pass refused: %v", untraced.Problems)
	}
	delete(untraced.Metrics, "wall_s")
	untraced.finish()
	if untraced.Correct {
		t.Fatal("untraced pass without wall_s accepted")
	}
}

// The external mutual-exclusion check: one holder flag flipped behind the
// clients' backs (an injected violation) fails the gate; a clean ring
// passes it.
func TestHolderFlagsFailTheGateOnInjectedViolation(t *testing.T) {
	gate := func(h *holders) bool {
		res := Result{Attempted: 10, Failed: h.overlaps.Load(), Metrics: map[string]float64{}}
		for _, m := range EndToEnd {
			res.Metrics[m.Name] = 1
		}
		res.finish()
		return res.Correct
	}
	clean := newHolders(8)
	for _, id := range []int{0, 2, 4, 6} { // an independent set may hold together
		clean.enter(id)
	}
	clean.exit(2)
	clean.exit(4)
	clean.enter(3)
	clean.exit(3)
	clean.enter(2)
	clean.enter(4)
	if !gate(clean) {
		t.Fatalf("clean ring failed the gate with %d overlaps", clean.overlaps.Load())
	}
	bad := newHolders(8)
	bad.flags[3].Store(true) // injected: node 3 holds although nobody granted it
	bad.enter(4)
	if gate(bad) {
		t.Fatal("gate passed although ring neighbours 3 and 4 held together")
	}
	wrap := newHolders(8)
	wrap.enter(0)
	wrap.enter(7) // the ring closes: 7 and 0 are neighbours
	if wrap.overlaps.Load() != 1 {
		t.Fatal("overlap across the ring's seam not seen")
	}
}

func TestCompareStatuses(t *testing.T) {
	set := func(vals map[string][]float64) ResultSet {
		var rs ResultSet
		for i := 0; i < 4; i++ {
			r := Result{Workload: "live_udp_sat", Metrics: map[string]float64{}}
			for k, v := range vals {
				r.Metrics[k] = v[i]
			}
			rs.Results = append(rs.Results, r)
		}
		return rs
	}
	a := set(map[string][]float64{
		"acq_per_s":    {1000, 1010, 990, 1005}, // higher is better, 25% bound
		"grant_p50_us": {100, 101, 99, 100},
		"wall_s":       {10, 14, 6, 10}, // spread far above the 25% bound
		"msgs_per_cs":  {9, 9, 9, 9},
	})
	b := set(map[string][]float64{
		"acq_per_s":    {600, 605, 595, 602}, // −40%: regressed
		"grant_p50_us": {104, 105, 103, 104}, // +4% within 25%: ok
		"wall_s":       {10, 13, 7, 11},      // unresolved
		"msgs_per_cs":  {8, 8, 8, 8},         // better: ok
	})
	want := map[string]string{"acq_per_s": "regressed", "grant_p50_us": "ok", "wall_s": "unresolved", "msgs_per_cs": "ok"}
	rows := Compare(a, b)
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		if r.Status != want[r.Metric] {
			t.Errorf("%s: %s (worse by %.3f, spread %.3f), want %s", r.Metric, r.Status, r.WorseBy, r.Spread, want[r.Metric])
		}
	}
}
