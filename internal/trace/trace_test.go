package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"
)

func TestBusPublishAndSubscribeFilter(t *testing.T) {
	b := NewBus(0)
	var sends, all int
	b.Subscribe(func(e *Event) { sends++ }, KindSend)
	b.Subscribe(func(e *Event) { all++ })
	b.Publish(&Event{Kind: KindSend, Node: 1, Peer: 2})
	b.Publish(&Event{Kind: KindDeliver, Node: 2, Peer: 1})
	b.Publish(&Event{Kind: KindState, Node: 1})
	if sends != 1 {
		t.Errorf("kind-filtered subscriber saw %d events, want 1", sends)
	}
	if all != 3 {
		t.Errorf("unfiltered subscriber saw %d events, want 3", all)
	}
	if b.Total() != 3 {
		t.Errorf("Total = %d, want 3", b.Total())
	}
}

func TestBusSequenceNumbers(t *testing.T) {
	b := NewBus(4)
	var seqs []uint64
	b.Subscribe(func(e *Event) { seqs = append(seqs, e.Seq) })
	for i := 0; i < 3; i++ {
		b.Publish(&Event{Kind: KindNote})
	}
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("seq[%d] = %d, want %d", i, s, i+1)
		}
	}
}

func TestBusRingWraparound(t *testing.T) {
	b := NewBus(3)
	for i := 1; i <= 5; i++ {
		b.Publish(&Event{Kind: KindNote, At: 0, Node: 0, Detail: ""})
	}
	recent := b.Recent(10)
	if len(recent) != 3 {
		t.Fatalf("Recent(10) returned %d events, want 3 (ring capacity)", len(recent))
	}
	// Oldest first: after 5 publishes into a 3-slot ring, slots hold 3,4,5.
	for i, e := range recent {
		if want := uint64(3 + i); e.Seq != want {
			t.Errorf("recent[%d].Seq = %d, want %d", i, e.Seq, want)
		}
	}
	if got := b.Recent(2); len(got) != 2 || got[0].Seq != 4 || got[1].Seq != 5 {
		t.Errorf("Recent(2) = %+v, want seqs 4,5", got)
	}
}

func TestBusRecentEmptyAndDisabled(t *testing.T) {
	if got := NewBus(0).Recent(5); got != nil {
		t.Errorf("Recent on ringless bus = %v, want nil", got)
	}
	if got := NewBus(4).Recent(5); got != nil {
		t.Errorf("Recent on empty bus = %v, want nil", got)
	}
}

func TestBusActive(t *testing.T) {
	if NewBus(0).Active() {
		t.Error("bare bus reported active")
	}
	if !NewBus(8).Active() {
		t.Error("ring-buffered bus reported inactive")
	}
	b := NewBus(0)
	b.Subscribe(func(*Event) {})
	if !b.Active() {
		t.Error("subscribed bus reported inactive")
	}
	b2 := NewBus(0)
	b2.SetSink(&bytes.Buffer{})
	if !b2.Active() {
		t.Error("sinked bus reported inactive")
	}
	b2.SetSink(nil)
	if b2.Active() {
		t.Error("detached sink left bus active")
	}
}

func TestJSONLSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	b := NewBus(0)
	b.SetSink(&buf)
	published := []Event{
		{At: 1000, Kind: KindSend, Node: 3, Peer: 7, Msg: "fork", Size: 16},
		{At: 2000, Kind: KindDeliver, Node: 7, Peer: 0, Msg: "fork", Size: 16, Delay: 1000}, // genuine peer 0
		{At: 3000, Kind: KindState, Node: 2, Peer: NoNode, Old: "hungry", New: "eating"},    // no peer
		{At: 4000, Kind: KindNote, Node: 1, Peer: NoNode, Detail: "free-form"},
	}
	for _, e := range published {
		b.Publish(&e)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(published) {
		t.Fatalf("sink wrote %d lines, want %d", len(lines), len(published))
	}
	// The NoNode sentinel must not leak into the wire format.
	if strings.Contains(lines[2], "peer") {
		t.Errorf("absent peer encoded: %s", lines[2])
	}
	// A genuine peer 0 must survive.
	if !strings.Contains(lines[1], `"peer":0`) {
		t.Errorf("peer 0 dropped: %s", lines[1])
	}
	dec := json.NewDecoder(strings.NewReader(buf.String()))
	for i, want := range published {
		var got Event
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("decode line %d: %v", i+1, err)
		}
		want.Seq = uint64(i + 1)
		if got != want {
			t.Errorf("round trip line %d:\n got %+v\nwant %+v", i+1, got, want)
		}
	}
	if err := dec.Decode(&Event{}); err != io.EOF {
		t.Fatalf("trailing data after %d events: %v", len(published), err)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestSinkErrSticky(t *testing.T) {
	b := NewBus(0)
	b.SetSink(failWriter{})
	b.Publish(&Event{Kind: KindNote})
	b.Publish(&Event{Kind: KindNote})
	// The sink batches: the write (and its failure) happens at flush.
	if err := b.Flush(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Flush = %v, want the writer's error", err)
	}
	if err := b.SinkErr(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("SinkErr = %v, want the writer's error", err)
	}
	if err := b.Flush(); err == nil {
		t.Fatal("sticky error cleared by a later Flush")
	}
}

func TestKindTextRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		text, err := k.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back Kind
		if err := back.UnmarshalText(text); err != nil {
			t.Fatalf("unmarshal %q: %v", text, err)
		}
		if back != k {
			t.Errorf("kind %v round-tripped to %v", k, back)
		}
	}
	var k Kind
	if err := k.UnmarshalText([]byte("no-such-kind")); err == nil {
		t.Error("unknown kind accepted")
	}
	if got := Kind(200).String(); !strings.Contains(got, "200") {
		t.Errorf("out-of-range kind string = %q", got)
	}
}

func TestNormalizeTypeName(t *testing.T) {
	cases := map[string]string{
		"lme1.msgFork":          "fork",
		"*lme1.msgFork":         "fork",
		"baseline.cmFork":       "fork",
		"lme2.msgNotification":  "notification",
		"lme1.msgUpdateColor":   "updatecolor",
		"baseline.tokenRequest": "tokenrequest",
		"main.Payload":          "payload",
		"plain":                 "plain",
		"deeply/pkg.msgDoorway": "doorway",
		"lme2.msgSwitch":        "switch",
	}
	for in, want := range cases {
		if got := NormalizeTypeName(in); got != want {
			t.Errorf("NormalizeTypeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestTypeNamerCaches(t *testing.T) {
	type msgFork struct{ A, B int64 }
	tn := NewTypeNamer()
	name, size := tn.Name(msgFork{})
	if name != "fork" {
		t.Errorf("name = %q, want fork", name)
	}
	if size != 16 {
		t.Errorf("size = %d, want 16", size)
	}
	name2, size2 := tn.Name(msgFork{A: 9})
	if name2 != name || size2 != size {
		t.Errorf("cached lookup diverged: %q/%d vs %q/%d", name2, size2, name, size)
	}
}

func TestEventString(t *testing.T) {
	// Every kind must render without panicking and mention its node.
	for _, k := range Kinds() {
		e := Event{Kind: k, Node: 5, Peer: 6, Msg: "req", Old: "hungry", New: "eating", Detail: "x"}
		if s := e.String(); s == "" {
			t.Errorf("kind %v rendered empty", k)
		}
	}
	e := Event{Kind: KindSend, Node: 1, Peer: 2, Msg: "fork", Size: 24}
	if got := e.String(); got != "send 1→2 fork (24B)" {
		t.Errorf("send rendering = %q", got)
	}
}
