package manet

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"lme/internal/core"
	"lme/internal/graph"
	"lme/internal/trace"
)

// emitter is a protocol that publishes custom trace events from Init,
// exercising env.Emit's pass-through contract.
type emitter struct {
	stub
	events []trace.Event
}

func (e *emitter) Init(env core.Env) {
	e.stub.Init(env)
	em := env.(trace.Emitter)
	for _, ev := range e.events {
		em.Emit(ev)
	}
}

// TestEmitPeerPassthrough pins the env.Emit contract: the Peer field is
// passed through verbatim. An event genuinely about node 0 keeps Peer 0
// (the runtime must not rewrite it to NoNode), and NoNode encodes as the
// absence of the peer field in JSONL.
func TestEmitPeerPassthrough(t *testing.T) {
	cfg := lineConfig()
	w := NewWorld(cfg)
	var buf bytes.Buffer
	w.Bus().SetSink(&buf)
	var seen []trace.Event
	w.Bus().Subscribe(func(ev *trace.Event) { seen = append(seen, *ev) }, trace.KindNote)

	w.AddNode(graph.Point{X: 0})
	id := w.AddNode(graph.Point{X: 0.05})
	w.SetProtocol(0, &stub{})
	w.SetProtocol(id, &emitter{events: []trace.Event{
		{Kind: trace.KindNote, Peer: 0, Detail: "about-node-zero"},
		{Kind: trace.KindNote, Peer: trace.NoNode, Detail: "no-peer"},
	}})
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}

	if err := w.Bus().Flush(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 {
		t.Fatalf("subscriber saw %d note events, want 2", len(seen))
	}
	if seen[0].Peer != 0 || seen[0].Node != id {
		t.Fatalf("peer-0 event arrived as node=%d peer=%d, want node=%d peer=0",
			seen[0].Node, seen[0].Peer, id)
	}
	if seen[1].Peer != trace.NoNode {
		t.Fatalf("no-peer event arrived with peer=%d, want NoNode", seen[1].Peer)
	}

	var lines []string
	for _, l := range strings.Split(buf.String(), "\n") {
		if strings.Contains(l, `"kind":"note"`) {
			lines = append(lines, l)
		}
	}
	if len(lines) != 2 {
		t.Fatalf("sink wrote %d note lines, want 2", len(lines))
	}
	if !strings.Contains(lines[0], `"peer":0`) {
		t.Fatalf("peer-0 event lost its peer field on the wire: %s", lines[0])
	}
	if strings.Contains(lines[1], `"peer"`) {
		t.Fatalf("NoNode leaked into the wire encoding: %s", lines[1])
	}
	// And both survive the round trip.
	for i, l := range lines {
		var ev trace.Event
		if err := json.Unmarshal([]byte(l), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Peer != seen[i].Peer {
			t.Fatalf("line %d round-tripped peer %d, want %d", i, ev.Peer, seen[i].Peer)
		}
	}
}
