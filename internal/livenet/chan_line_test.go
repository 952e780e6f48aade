package livenet

// Tests of the channel transport's delay lines: the link model they
// implement, the line's heap against a sorted oracle, and what the lines
// cost in goroutines and allocations.

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"lme/internal/core"
	"lme/internal/graph"
	"lme/internal/lme2"
)

// TestChannelDelayModel pins the channel transport's link model. (a) A
// link's delays are the draws of its own PCG stream, seeded by the
// transport's seed and linkSalt. (b) A link serves one frame at a time,
// so in a burst frame i never arrives before the burst began plus the
// first i delays; arrivals may be late, never early, so the check does
// not depend on the speed of the box.
func TestChannelDelayModel(t *testing.T) {
	const (
		nu   = 2 * time.Millisecond
		seed = 42
	)
	want := map[linkKey][8]int64{
		{0, 1}: {966518, 986306, 1804448, 189591, 860280, 931535, 336997, 1524149},
		{1, 0}: {743346, 54310, 1164324, 1282237, 1564085, 244870, 119790, 861584},
	}
	g := graph.Line(2)
	tr := NewChannelTransport(g, nu, seed)
	for key, delays := range want {
		oracle := rand.New(rand.NewPCG(seed, linkSalt(key)))
		link := &tr.links[tr.index[key]]
		for i, d := range delays {
			if got := oracle.Int64N(int64(nu)) + 1; got != d {
				t.Fatalf("link %v: draw %d of its stream is %d, pinned %d", key, i, got, d)
			}
			if got := link.rng.Int64N(int64(nu)) + 1; got != d {
				t.Fatalf("link %v: delay %d is %d, want the stream's %d", key, i, got, d)
			}
		}
	}

	tr = NewChannelTransport(g, nu, seed)
	var (
		mu      sync.Mutex
		begin   time.Time
		arrived []time.Duration
	)
	done := make(chan struct{})
	delays := want[linkKey{0, 1}]
	if err := tr.Start(func(Frame) {
		mu.Lock()
		defer mu.Unlock()
		arrived = append(arrived, time.Since(begin))
		if len(arrived) == len(delays) {
			close(done)
		}
	}); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer tr.Close() //nolint:errcheck
	mu.Lock()
	begin = time.Now()
	mu.Unlock()
	for i := range delays {
		tr.Send(Frame{From: 0, To: 1, Msg: confMsg{N: i}, Mseq: uint64(i) + 1})
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the burst was not delivered")
	}
	mu.Lock()
	defer mu.Unlock()
	var floor time.Duration
	for i, at := range arrived {
		floor += time.Duration(delays[i])
		if at < floor {
			t.Errorf("frame %d arrived %v after the burst began, before the %v its link's first %d delays allow", i, at, floor, i+1)
		}
	}
}

// TestDelayLineMatchesSortedOracle drives push and pop with random due
// instants (many of them equal) against a slice kept sorted, through
// phases that grow the line past lineKeep and drain it again: pop order
// is due order, and a drained line keeps no slab larger than lineKeep.
func TestDelayLineMatchesSortedOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	var ln delayLine
	var want []int64
	drains := 0
	for step := 0; step < 40_000; step++ {
		pushBias := 4
		if step/2_000%2 == 0 {
			pushBias = 12
		}
		if rng.IntN(16) < pushBias || len(want) == 0 {
			due := int64(rng.IntN(500))
			ln.push(lineItem{due: due, f: Frame{Mseq: uint64(step)}})
			i, _ := slices.BinarySearch(want, due)
			want = slices.Insert(want, i, due)
		} else {
			if got := ln.pop().due; got != want[0] {
				t.Fatalf("step %d: popped due %d, want %d", step, got, want[0])
			}
			want = want[1:]
			if len(want) == 0 {
				drains++
				if cap(ln.items) > lineKeep {
					t.Fatalf("step %d: a drained line keeps a slab of %d frames", step, cap(ln.items))
				}
			}
		}
		if len(ln.items) != len(want) {
			t.Fatalf("step %d: %d frames in the line, want %d", step, len(ln.items), len(want))
		}
	}
	if drains == 0 {
		t.Fatal("the line never drained; the slab release went untested")
	}
}

// TestChannelGoroutineBudget pins what the host costs in goroutines on
// the channel transport: a shard loop and a delay line per core and the
// pacer, whatever the node count — and all of them gone after Stop.
func TestChannelGoroutineBudget(t *testing.T) {
	const n = 1024
	base := runtime.NumGoroutine()
	g := graph.Ring(n)
	protos := make([]core.Protocol, n)
	for i := range protos {
		protos[i] = lme2.New()
	}
	c, err := New(Config{}, g, protos)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := c.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	lease, err := c.Node(n / 2).Acquire(t.Context())
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if got, budget := runtime.NumGoroutine()-base, 2*len(c.shards)+3; got > budget {
		t.Errorf("a running cluster of %d nodes holds %d goroutines, budget %d", n, got, budget)
	}
	lease.Release() //nolint:errcheck
	if err := c.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if !waitFor(t, 5*time.Second, func() bool { return runtime.NumGoroutine() <= base }) {
		t.Errorf("%d goroutines after Stop, %d before New", runtime.NumGoroutine(), base)
	}
}

// TestChannelSendDeliverDoesNotAllocate: in steady state a frame's way
// through the channel transport — Send, the delay line, the wake-up and
// the delivery — allocates nothing.
func TestChannelSendDeliverDoesNotAllocate(t *testing.T) {
	tr := NewChannelTransport(graph.Line(2), time.Microsecond, 1)
	got := make(chan struct{}, 1)
	if err := tr.Start(func(Frame) { got <- struct{}{} }); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer tr.Close() //nolint:errcheck
	var msg core.Message = confMsg{N: 1}
	f := Frame{From: 0, To: 1, Msg: msg}
	cycle := func() {
		f.Mseq++
		tr.Send(f)
		<-got
	}
	cycle() // the line's slab and batch buffer
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("a frame through the delay line allocates %.2f times", avg)
	}
}
