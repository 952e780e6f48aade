package span

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"lme/internal/trace"
)

// differentialSpans covers the span shapes the collector can close: with
// and without optional counters, nil vs empty vs populated phase lists,
// message-closed and timer-closed phases, and strings needing escapes.
func differentialSpans() []Span {
	return []Span{
		{Node: 3, Attempt: 1, Start: 1000, End: 9000, Outcome: OutcomeAte, Phases: []Phase{
			{Name: PhaseDoorway, Detail: "adr", Start: 1000, End: 2500,
				UnblockedBy: &MsgRef{From: 7, Seq: 41, Msg: "fork"}},
			{Name: PhaseCollect, Start: 2500, End: 6000,
				UnblockedBy: &MsgRef{From: 0, Seq: 2}},
			{Name: PhaseEat, Start: 6000, End: 9000},
		}},
		{Node: 0, Attempt: 2, Start: 0, End: 0, Outcome: OutcomeOpen, Phases: nil},
		{Node: -1, Attempt: 3, Start: -5, End: 5, Outcome: OutcomeCrashed, Phases: []Phase{}},
		{Node: 12, Attempt: 900, Start: 1 << 40, End: 1<<40 + 7, Outcome: OutcomeAte,
			Demotions: 2, Recolors: 5, Phases: []Phase{
				{Name: PhaseRecolor, Start: 1 << 40, End: 1<<40 + 3},
			}},
		{Node: 1, Attempt: 1, Start: 1, End: 2, Outcome: `we "quoted" <&> crashed`, Phases: []Phase{
			{Name: "odd\nname", Detail: "tab\there", Start: 1, End: 2,
				UnblockedBy: &MsgRef{From: 1, Seq: 1, Msg: "m\x01sg"}},
		}},
	}
}

// TestSpanAppendJSONDifferential holds Span.AppendJSON (and through it
// Phase and MsgRef) to the encoding/json oracle byte for byte.
func TestSpanAppendJSONDifferential(t *testing.T) {
	for _, s := range differentialSpans() {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.AppendJSON(nil); !bytes.Equal(got, want) {
			t.Errorf("Span.AppendJSON diverged:\n got %s\nwant %s", got, want)
		}
	}
}

// TestEdgeAppendJSONDifferential covers the wait-for edge record.
func TestEdgeAppendJSONDifferential(t *testing.T) {
	for _, e := range []Edge{
		{From: 3, To: 7, Why: "fork"},
		{From: 0, To: -1, Why: "doorway:adr"},
		{From: 9, To: 9, Why: `why "not" <here>`},
	} {
		want, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.AppendJSON(nil); !bytes.Equal(got, want) {
			t.Errorf("Edge.AppendJSON diverged:\n got %s\nwant %s", got, want)
		}
	}
}

// TestPostmortemAppendJSONDifferential: the compact post-mortem encoding
// must match encoding/json, including ring events with a genuine peer 0
// and the null forms of the nil slices.
func TestPostmortemAppendJSONDifferential(t *testing.T) {
	pms := []Postmortem{
		{
			Schema: PostmortemSchema,
			Reason: "nodes 3 and 7 both eating",
			At:     123456,
			Ring: []trace.Event{
				{Seq: 1, At: 1000, Kind: trace.KindSend, Node: 3, Peer: 0, Msg: "fork", Size: 16, MsgSeq: 2},
				{Seq: 2, At: 1200, Kind: trace.KindState, Node: 7, Peer: trace.NoNode, Old: "hungry", New: "eating"},
			},
			Open:    differentialSpans()[:2],
			WaitFor: []Edge{{From: 3, To: 7, Why: "fork"}},
		},
		{Schema: PostmortemSchema, Reason: "empty", At: 0, Ring: []trace.Event{}, Open: []Span{}, WaitFor: []Edge{}},
		{Schema: PostmortemSchema, Reason: "nil slices", At: -1},
	}
	for _, pm := range pms {
		want, err := json.Marshal(pm)
		if err != nil {
			t.Fatal(err)
		}
		if got := pm.AppendJSON(nil); !bytes.Equal(got, want) {
			t.Errorf("Postmortem.AppendJSON diverged:\n got %s\nwant %s", got, want)
		}
	}
}

// TestWriteJSONLMatchesEncoder: the batched fast path must produce the
// byte stream the per-span json.Encoder produced.
func TestWriteJSONLMatchesEncoder(t *testing.T) {
	c := New()
	c.closed = differentialSpans()
	var got bytes.Buffer
	if err := c.WriteJSONL(&got); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for _, s := range c.closed {
		if err := enc.Encode(s); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("WriteJSONL diverged from the json.Encoder stream:\n got %q\nwant %q",
			got.String(), want.String())
	}
}

// TestWritePostmortemMatchesEncoder: the AppendJSON + json.Indent path
// must reproduce the old json.Encoder/SetIndent output byte for byte.
func TestWritePostmortemMatchesEncoder(t *testing.T) {
	c := New()
	feedAttempt := []trace.Event{
		{At: 100, Kind: trace.KindState, Node: 4, Peer: trace.NoNode, Old: "thinking", New: "hungry"},
		{At: 200, Kind: trace.KindDoorway, Node: 4, Peer: trace.NoNode, New: "enter", Detail: "adr"},
	}
	for i, e := range feedAttempt {
		e.Seq = uint64(i + 1)
		c.Feed(&e)
	}
	ring := []trace.Event{
		{Seq: 9, At: 900, Kind: trace.KindSend, Node: 4, Peer: 0, Msg: "req", Size: 24, MsgSeq: 3},
	}
	var got bytes.Buffer
	if err := WritePostmortem(&got, "double eat", 950, ring, c); err != nil {
		t.Fatal(err)
	}
	pm := Postmortem{
		Schema: PostmortemSchema, Reason: "double eat", At: 950,
		Ring: ring, Open: c.OpenSpans(), WaitFor: c.WaitEdges(),
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(pm); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("WritePostmortem diverged from json.Encoder output:\n got %s\nwant %s",
			got.String(), want.String())
	}
	if !strings.HasSuffix(got.String(), "\n") {
		t.Fatal("post-mortem lost its trailing newline")
	}
}
