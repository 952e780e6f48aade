package metrics

import (
	"reflect"
	"slices"
	"sort"
	"testing"

	"lme/internal/core"
	"lme/internal/graph"
	"lme/internal/sim"
)

// oracleRecorder and oracleProber are the two listeners the Ledger
// replaced, kept as its differential oracle: a response-time recorder
// and a starvation prober, each with its own map of open waits.
type oracleRecorder struct {
	hungrySince map[core.NodeID]sim.Time
	tainted     map[core.NodeID]bool
	sketch      *Sketch
	eatCount    map[core.NodeID]int
	samples     []sim.Time
}

func newOracleRecorder() *oracleRecorder {
	return &oracleRecorder{
		hungrySince: make(map[core.NodeID]sim.Time),
		tainted:     make(map[core.NodeID]bool),
		sketch:      NewSketch(),
		eatCount:    make(map[core.NodeID]int),
	}
}

func (r *oracleRecorder) OnStateChange(id core.NodeID, old, new core.State, at sim.Time) {
	switch new {
	case core.Hungry:
		r.hungrySince[id] = at
		delete(r.tainted, id)
	case core.Eating:
		r.eatCount[id]++
		start, ok := r.hungrySince[id]
		delete(r.hungrySince, id)
		if !ok || r.tainted[id] {
			return
		}
		d := at - start
		r.sketch.Observe(d)
		r.samples = append(r.samples, d)
	case core.Thinking:
		delete(r.hungrySince, id)
	}
}

func (r *oracleRecorder) OnMove(id core.NodeID) {
	if _, hungry := r.hungrySince[id]; hungry {
		r.tainted[id] = true
	}
}

type oracleProber struct {
	hungrySince map[core.NodeID]sim.Time
	lastEat     map[core.NodeID]sim.Time
}

func newOracleProber() *oracleProber {
	return &oracleProber{
		hungrySince: make(map[core.NodeID]sim.Time),
		lastEat:     make(map[core.NodeID]sim.Time),
	}
}

func (p *oracleProber) OnStateChange(id core.NodeID, old, new core.State, at sim.Time) {
	switch new {
	case core.Hungry:
		if _, open := p.hungrySince[id]; !open {
			p.hungrySince[id] = at
		}
	case core.Eating:
		delete(p.hungrySince, id)
		p.lastEat[id] = at
	case core.Thinking:
		delete(p.hungrySince, id)
	}
}

func (p *oracleProber) Blocked(now, patience sim.Time) []core.NodeID {
	var out []core.NodeID
	for id, since := range p.hungrySince {
		if now-since >= patience {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (p *oracleProber) StarvedSince(t sim.Time) []core.NodeID {
	var out []core.NodeID
	for id := range p.hungrySince {
		if last, ate := p.lastEat[id]; !ate || last < t {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FuzzLedger replays an arbitrary sequence of state transitions (each
// from the node's current state to a different one, as the world
// reports them), moves and queries into a Ledger and into the two
// oracles, and compares every query at every query instant.
func FuzzLedger(f *testing.F) {
	f.Add([]byte{0, 5, 0x10, 3, 0x41, 1, 0x02, 9, 0x10, 7, 0x03, 2})
	f.Add([]byte{0x00, 1, 0x04, 1, 0x01, 1, 0x00, 1, 0x02, 40, 0x07, 200})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const n = 6
		l := NewLedger(n, true)
		rec, prb := newOracleRecorder(), newOracleProber()
		state := slices.Repeat([]core.State{core.Thinking}, n)
		now := sim.Time(0)
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], sim.Time(ops[i+1])
			id := core.NodeID(op >> 2 % n)
			switch op & 3 {
			case 0, 1: // transition to one of the two other states
				now += arg
				old := state[id]
				new := core.Thinking + (old-core.Thinking+1+core.State(op&1))%3
				state[id] = new
				l.OnStateChange(id, old, new, now)
				rec.OnStateChange(id, old, new, now)
				prb.OnStateChange(id, old, new, now)
			case 2:
				now += arg
				l.OnMove(id, op&0x80 != 0, now)
				rec.OnMove(id)
			case 3: // query at now, looking back arg
				if got, want := l.Blocked(now, arg), prb.Blocked(now, arg); !slices.Equal(got, want) {
					t.Fatalf("op %d: Blocked(%d, %d) = %v, oracle %v", i, now, arg, got, want)
				}
				at := now - arg
				if got, want := l.StarvedSince(at), prb.StarvedSince(at); !slices.Equal(got, want) {
					t.Fatalf("op %d: StarvedSince(%d) = %v, oracle %v", i, at, got, want)
				}
			}
		}
		meals := 0
		for id := core.NodeID(0); id < n; id++ {
			if got, want := l.EatCount(id), rec.eatCount[id]; got != want {
				t.Fatalf("EatCount(%d) = %d, oracle %d", id, got, want)
			}
			meals += rec.eatCount[id]
			gotT, gotOK := l.LastEat(id)
			wantT, wantOK := prb.lastEat[id]
			if gotT != wantT || gotOK != wantOK {
				t.Fatalf("LastEat(%d) = %d,%v, oracle %d,%v", id, gotT, gotOK, wantT, wantOK)
			}
		}
		if l.Meals() != meals {
			t.Fatalf("Meals() = %d, oracle %d", l.Meals(), meals)
		}
		if got, want := l.Samples(), rec.samples; !slices.Equal(got, want) {
			t.Fatalf("Samples() = %v, oracle %v", got, want)
		}
		if got, want := l.Stats(), rec.sketch.Stats(); got != want {
			t.Fatalf("Stats() = %+v, oracle %+v", got, want)
		}
		if got, want := l.Sketch().Snapshot(), rec.sketch.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("Sketch().Snapshot() = %+v, oracle %+v", got, want)
		}
	})
}

func TestResponseRecorderBasic(t *testing.T) {
	l := NewLedger(4, true)
	l.OnStateChange(3, core.Thinking, core.Hungry, 100)
	l.OnStateChange(3, core.Hungry, core.Eating, 250)
	l.OnStateChange(3, core.Eating, core.Thinking, 300)
	samples := l.Samples()
	if len(samples) != 1 || samples[0] != 150 {
		t.Fatalf("samples = %v", samples)
	}
	if l.EatCount(3) != 1 || l.Meals() != 1 {
		t.Fatalf("eat count = %d, meals = %d", l.EatCount(3), l.Meals())
	}
}

func TestResponseRecorderTaintOnMove(t *testing.T) {
	l := NewLedger(2, true)
	l.OnStateChange(1, core.Thinking, core.Hungry, 100)
	l.OnMove(1, true, 120)
	l.OnMove(1, false, 140)
	l.OnStateChange(1, core.Hungry, core.Eating, 200)
	if len(l.Samples()) != 0 {
		t.Fatal("tainted interval sampled")
	}
	if l.EatCount(1) != 1 {
		t.Fatal("eating not counted despite taint")
	}
	// A later clean interval samples normally.
	l.OnStateChange(1, core.Eating, core.Thinking, 210)
	l.OnStateChange(1, core.Thinking, core.Hungry, 300)
	l.OnStateChange(1, core.Hungry, core.Eating, 360)
	if got := l.Samples(); len(got) != 1 || got[0] != 60 {
		t.Fatalf("samples = %v", got)
	}
}

func TestResponseRecorderMoveOfOtherNodeNoTaint(t *testing.T) {
	l := NewLedger(3, true)
	l.OnStateChange(1, core.Thinking, core.Hungry, 100)
	l.OnMove(2, true, 120)
	l.OnStateChange(1, core.Hungry, core.Eating, 200)
	if len(l.Samples()) != 1 {
		t.Fatal("unrelated movement tainted the sample")
	}
}

func TestResponseRecorderDemotionOpensNewInterval(t *testing.T) {
	l := NewLedger(2, true)
	l.OnStateChange(1, core.Thinking, core.Hungry, 100)
	l.OnStateChange(1, core.Hungry, core.Eating, 150)
	l.OnStateChange(1, core.Eating, core.Hungry, 160) // demotion
	l.OnStateChange(1, core.Hungry, core.Eating, 260)
	got := l.Samples()
	if len(got) != 2 || got[0] != 50 || got[1] != 100 {
		t.Fatalf("samples = %v", got)
	}
}

// TestResponseRecorderStreamingDefault pins the bounded-memory default:
// without retain no sample slice is kept, yet Stats() still serves
// exact count/mean/max (and α-accurate percentiles) from the sketch, and
// taint/demotion semantics are unchanged.
func TestResponseRecorderStreamingDefault(t *testing.T) {
	l := NewLedger(3, false)
	l.OnStateChange(1, core.Thinking, core.Hungry, 100)
	l.OnStateChange(1, core.Hungry, core.Eating, 150) // sample 50
	l.OnStateChange(1, core.Eating, core.Hungry, 160) // demotion
	l.OnStateChange(1, core.Hungry, core.Eating, 260) // sample 100
	l.OnStateChange(2, core.Thinking, core.Hungry, 100)
	l.OnMove(2, true, 120)
	l.OnStateChange(2, core.Hungry, core.Eating, 400) // tainted: no sample
	if got := l.Samples(); got != nil {
		t.Fatalf("streaming ledger retained samples: %v", got)
	}
	s := l.Stats()
	if s.Count != 2 || s.Mean != 75 || s.Max != 100 {
		t.Fatalf("stats = %+v", s)
	}
	if l.EatCount(1) != 2 || l.EatCount(2) != 1 || l.Meals() != 3 {
		t.Fatalf("eat counts = %d, %d, meals = %d", l.EatCount(1), l.EatCount(2), l.Meals())
	}
	if l.Sketch().Count() != 2 {
		t.Fatalf("sketch count = %d", l.Sketch().Count())
	}
}

// TestRecorderStatsMatchesSummarize holds the sketch-served Stats to the
// exact Summarize over the retained slice, within the sketch's accuracy.
func TestRecorderStatsMatchesSummarize(t *testing.T) {
	l := NewLedger(7, true)
	at := sim.Time(0)
	for i := 0; i < 500; i++ {
		id := core.NodeID(i % 7)
		l.OnStateChange(id, core.Thinking, core.Hungry, at)
		at += sim.Time(50 + (i*i)%9000)
		l.OnStateChange(id, core.Hungry, core.Eating, at)
		at += 10
		l.OnStateChange(id, core.Eating, core.Thinking, at)
	}
	got := l.Stats()
	want := Summarize(l.Samples())
	if got.Count != want.Count || got.Mean != want.Mean || got.Max != want.Max {
		t.Fatalf("exact fields drifted: %+v vs %+v", got, want)
	}
	alpha := l.Sketch().RelativeAccuracy()
	for _, c := range []struct{ got, want sim.Time }{{got.P50, want.P50}, {got.P95, want.P95}} {
		if d := float64(c.got - c.want); d > alpha*float64(c.want)+1 || d < -alpha*float64(c.want)-1 {
			t.Fatalf("quantile %v vs exact %v exceeds α", c.got, c.want)
		}
	}
}

func TestProberBlocked(t *testing.T) {
	l := NewLedger(4, false)
	l.OnStateChange(1, core.Thinking, core.Hungry, 100)
	l.OnStateChange(2, core.Thinking, core.Hungry, 900)
	l.OnStateChange(3, core.Thinking, core.Hungry, 100)
	l.OnStateChange(3, core.Hungry, core.Eating, 150)
	blocked := l.Blocked(1_000, 500)
	if len(blocked) != 1 || blocked[0] != 1 {
		t.Fatalf("blocked = %v", blocked)
	}
}

// TestProberHungryReentryKeepsOriginalStart: a report that changes no
// state is ignored, so a repeated Hungry report while already hungry
// resets neither the blocked clock nor the response-time start.
func TestProberHungryReentryKeepsOriginalStart(t *testing.T) {
	l := NewLedger(2, true)
	l.OnStateChange(1, core.Thinking, core.Hungry, 100)
	l.OnStateChange(1, core.Hungry, core.Hungry, 400)
	if blocked := l.Blocked(700, 500); len(blocked) != 1 {
		t.Fatalf("blocked = %v, want node 1 via original start", blocked)
	}
	l.OnStateChange(1, core.Hungry, core.Eating, 700)
	if got := l.Samples(); len(got) != 1 || got[0] != 600 {
		t.Fatalf("samples = %v, want [600] from the original start", got)
	}
	// A real demotion after eating opens a fresh interval at t=400.
	l2 := NewLedger(2, false)
	l2.OnStateChange(1, core.Thinking, core.Hungry, 100)
	l2.OnStateChange(1, core.Hungry, core.Eating, 300)
	l2.OnStateChange(1, core.Eating, core.Hungry, 400)
	if blocked := l2.Blocked(700, 500); len(blocked) != 0 {
		t.Fatalf("blocked = %v (demotion did not reset interval)", blocked)
	}
}

func TestProberStarvedSince(t *testing.T) {
	l := NewLedger(3, false)
	l.OnStateChange(1, core.Thinking, core.Hungry, 100)
	l.OnStateChange(1, core.Hungry, core.Eating, 200)
	l.OnStateChange(1, core.Eating, core.Thinking, 250)
	l.OnStateChange(1, core.Thinking, core.Hungry, 300)
	l.OnStateChange(2, core.Thinking, core.Hungry, 100)
	// Node 1 last ate at 200; node 2 never ate; both hungry now.
	starved := l.StarvedSince(500)
	if len(starved) != 2 {
		t.Fatalf("starved = %v", starved)
	}
	starved = l.StarvedSince(150)
	if len(starved) != 1 || starved[0] != 2 {
		t.Fatalf("starved = %v", starved)
	}
	if _, ok := l.LastEat(2); ok {
		t.Fatal("node 2 reported as having eaten")
	}
	if at, ok := l.LastEat(1); !ok || at != 200 {
		t.Fatalf("LastEat(1) = %v, %v", at, ok)
	}
}

// TestProberStarvedSinceNeverAte isolates the never-ate path: a node that
// never ate counts as starved from any reference point, but only while
// it is actually hungry.
func TestProberStarvedSinceNeverAte(t *testing.T) {
	l := NewLedger(3, false)
	l.OnStateChange(1, core.Thinking, core.Hungry, 100) // never eats
	l.OnStateChange(2, core.Thinking, core.Hungry, 100) // never eats, recovers
	l.OnStateChange(2, core.Hungry, core.Thinking, 200)
	if starved := l.StarvedSince(0); len(starved) != 1 || starved[0] != 1 {
		t.Fatalf("starved = %v, want [1]: hungry never-eater only", starved)
	}
	// A ledger that saw no transitions at all reports nobody.
	if starved := NewLedger(3, false).StarvedSince(0); len(starved) != 0 {
		t.Fatalf("fresh ledger starved = %v", starved)
	}
}

// TestProberBlockedPatienceBoundary pins the inclusive comparison: a wait
// exactly equal to the patience counts as blocked, one instant shorter
// does not.
func TestProberBlockedPatienceBoundary(t *testing.T) {
	l := NewLedger(2, false)
	l.OnStateChange(1, core.Thinking, core.Hungry, 100)
	if blocked := l.Blocked(600, 500); len(blocked) != 1 || blocked[0] != 1 {
		t.Fatalf("blocked at exact patience = %v, want [1]", blocked)
	}
	if blocked := l.Blocked(599, 500); len(blocked) != 0 {
		t.Fatalf("blocked one instant early = %v, want none", blocked)
	}
	// Zero patience: any currently-hungry node is blocked.
	if blocked := l.Blocked(100, 0); len(blocked) != 1 {
		t.Fatalf("blocked with zero patience = %v", blocked)
	}
}

// TestProberCrashedWhileHungry documents the crash-site convention: the
// ledger sees no state transition on a crash, so a node that dies hungry
// stays in the blocked/starved sets — callers measuring locality exclude
// the crash site themselves, which BlockedRadius does.
func TestProberCrashedWhileHungry(t *testing.T) {
	l := NewLedger(5, false)
	l.OnStateChange(4, core.Thinking, core.Hungry, 100)
	// Node 4 crashes at 150: no further transitions arrive.
	if blocked := l.Blocked(1_000, 500); len(blocked) != 1 || blocked[0] != 4 {
		t.Fatalf("crashed-hungry node not reported blocked: %v", blocked)
	}
	if starved := l.StarvedSince(150); len(starved) != 1 || starved[0] != 4 {
		t.Fatalf("crashed-hungry node not reported starved: %v", starved)
	}
	// The locality measurement excludes the crash site: a radius built
	// from only the crashed node itself is 0.
	g := graph.Line(6)
	if r := BlockedRadius(g, 4, []core.NodeID{4}); r != 0 {
		t.Fatalf("radius counting the crash site = %d", r)
	}
}
