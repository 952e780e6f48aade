package span

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"lme/internal/core"
	"lme/internal/sim"
	"lme/internal/trace"
)

// foldScenario is a multi-node event stream exercising every fold path:
// completed attempts, demotions, doorway and recolor phases, a crash
// mid-attempt, and an attempt left open at the end.
func foldScenario() []trace.Event {
	var evs []trace.Event
	at := sim.Time(0)
	// Nodes 0..3 complete several attempts of varying length.
	for round := 0; round < 5; round++ {
		for id := core.NodeID(0); id < 4; id++ {
			at += 100
			evs = append(evs,
				evState(id, "thinking", "hungry", at),
				evDoorway(id, "enter", "SD^r", at+50),
				evDoorway(id, "cross", "SD^r", at+200+sim.Time(id)*37),
				evDoorway(id, "enter", "AD^f", at+400),
				evDoorway(id, "cross", "AD^f", at+500),
				evState(id, "hungry", "eating", at+600+sim.Time(round)*91),
				evState(id, "eating", "thinking", at+900+sim.Time(round)*91),
			)
			at += 900 + sim.Time(round)*91
		}
	}
	// Node 1: a demotion inside an attempt.
	evs = append(evs,
		evState(1, "thinking", "hungry", at+100),
		evState(1, "hungry", "eating", at+300),
		evState(1, "eating", "hungry", at+350), // demotion
		evState(1, "hungry", "eating", at+700),
		evState(1, "eating", "thinking", at+800),
	)
	// Node 2 crashes mid-attempt; node 3 waits on it and stays open.
	evs = append(evs,
		evState(2, "thinking", "hungry", at+900),
		evSend(3, 2, "req", 77, at+950),
		evState(3, "thinking", "hungry", at+950),
		evCrash(2, at+1000),
	)
	return evs
}

// TestStreamingFoldMatchesRetained pins the core fold-mode guarantee:
// a streaming collector produces a Summary and NodeAggregates identical
// to the retaining collector's over the same event stream, while
// retaining no spans.
func TestStreamingFoldMatchesRetained(t *testing.T) {
	evs := foldScenario()

	retained := New()
	retained.SeedLink(2, 3)
	streaming := NewStreaming()
	streaming.SeedLink(2, 3)
	for _, e := range evs {
		retained.Feed(&e)
		streaming.Feed(&e)
	}
	end := retained.Now() + 10_000
	retained.Finalize(end)
	streaming.Finalize(end)

	if !retained.Retaining() || streaming.Retaining() {
		t.Fatal("retention flags wrong")
	}
	if len(retained.Spans()) == 0 {
		t.Fatal("scenario closed no spans")
	}
	if got := streaming.Spans(); len(got) != 0 {
		t.Fatalf("streaming collector kept %d spans", len(got))
	}

	want := retained.Summary()
	got := streaming.Summary()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("summaries diverged:\nretained  %+v\nstreaming %+v", want, got)
	}
	// The retained summary in turn matches the batch Summarize — the
	// three paths (batch, retained-online, streaming-online) are one fold.
	if batch := Summarize(retained.Spans(), retained.Impacts()); !reflect.DeepEqual(batch, want) {
		t.Fatalf("batch Summarize diverged:\nbatch    %+v\nretained %+v", batch, want)
	}
	if na, nb := retained.NodeAggregates(), streaming.NodeAggregates(); !reflect.DeepEqual(na, nb) {
		t.Fatalf("node aggregates diverged:\nretained  %+v\nstreaming %+v", na, nb)
	}
}

// TestStreamingCollectorRefusesJSONL: fold mode must fail loudly rather
// than write an empty span file.
func TestStreamingCollectorRefusesJSONL(t *testing.T) {
	c := NewStreaming()
	feed(c, evState(0, "thinking", "hungry", 10), evState(0, "hungry", "eating", 20),
		evState(0, "eating", "thinking", 30))
	c.Finalize(100)
	if err := c.WriteJSONL(io.Discard); err == nil {
		t.Fatal("streaming WriteJSONL succeeded")
	}
	var buf bytes.Buffer
	if err := New().WriteJSONL(&buf); err != nil {
		t.Fatalf("retaining WriteJSONL: %v", err)
	}
}

// TestOpenCount tracks the live open-attempt gauge through a lifecycle.
func TestOpenCount(t *testing.T) {
	c := NewStreaming()
	if c.OpenCount() != 0 {
		t.Fatal("fresh collector has open spans")
	}
	feed(c,
		evState(0, "thinking", "hungry", 10),
		evState(1, "thinking", "hungry", 20),
	)
	if c.OpenCount() != 2 {
		t.Fatalf("open = %d, want 2", c.OpenCount())
	}
	feed(c,
		evState(0, "hungry", "eating", 30),
		evState(0, "eating", "thinking", 40),
	)
	if c.OpenCount() != 1 {
		t.Fatalf("open = %d, want 1", c.OpenCount())
	}
}

// TestNodeAggregates pins the per-node fold: outcomes, demotions and
// busy time per node.
func TestNodeAggregates(t *testing.T) {
	c := NewStreaming()
	feed(c,
		evState(0, "thinking", "hungry", 100),
		evState(0, "hungry", "eating", 150),
		evState(0, "eating", "hungry", 160), // demotion
		evState(0, "hungry", "eating", 200),
		evState(0, "eating", "thinking", 250), // attempt 1: 100→250
		evState(2, "thinking", "hungry", 300),
		evCrash(2, 400),
	)
	c.Finalize(500)
	got := c.NodeAggregates()
	want := []NodeAggregate{
		{Node: 0, Attempts: 1, Ate: 1, Demotions: 1, BusyUS: 150},
		{Node: 2, Attempts: 1, Crashed: 1, BusyUS: 100},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("node aggregates = %+v, want %+v", got, want)
	}
}

// TestStreamingFoldAllocs pins the steady-state cost of a streaming
// collector that is never restarted, folding complete CS attempts —
// hungry, doorway enter/cross, request and fork, eating, exit, thinking:
// once its tables have grown, nothing per event and at most
// allocsPerAttempt short-lived objects per closed attempt (the phase list
// and the fold's scratch), whatever the run length. Each pass replays the
// same attempts later in virtual time.
func TestStreamingFoldAllocs(t *testing.T) {
	const allocsPerAttempt = 5
	const rounds, nodes = 40, 8
	var evs []trace.Event
	at := sim.Time(0)
	for round := 0; round < rounds; round++ {
		for n := core.NodeID(0); n < nodes; n++ {
			peer := (n + 1) % nodes
			seq := uint64(round*nodes) + uint64(n)
			for _, e := range []trace.Event{
				evState(n, "thinking", "hungry", 0),
				evDoorway(n, "enter", "adr", 0),
				evDoorway(n, "cross", "adr", 0),
				evSend(n, peer, "req", seq, 0),
				evDeliver(n, peer, "fork", seq, 0),
				evState(n, "hungry", "eating", 0),
				evDoorway(n, "exit", "adr", 0),
				evState(n, "eating", "thinking", 0),
			} {
				at += 37
				e.At = at
				evs = append(evs, e)
			}
		}
	}
	c := NewStreaming()
	var base sim.Time
	pass := func() {
		for _, e := range evs {
			e.At += base
			c.Feed(&e)
		}
		base += at
	}
	for range 10 {
		pass()
	}
	const attempts = rounds * nodes
	if avg := testing.AllocsPerRun(20, pass); avg > allocsPerAttempt*attempts {
		t.Fatalf("the streaming fold allocates %.0f times per pass of %d attempts, budget %d per attempt",
			avg, attempts, allocsPerAttempt)
	}
	if c.OpenCount() != 0 {
		t.Fatalf("%d attempts left open", c.OpenCount())
	}
}
