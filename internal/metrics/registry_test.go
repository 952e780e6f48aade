package metrics

import (
	"strings"
	"testing"

	"lme/internal/sim"
	"lme/internal/trace"
)

func TestRegistryCounters(t *testing.T) {
	r := NewRegistry()
	r.Inc("a")
	r.Add("a", 4)
	r.Inc("b")
	if got := r.Counter("a"); got != 5 {
		t.Errorf("counter a = %d, want 5", got)
	}
	if got := r.Counter("missing"); got != 0 {
		t.Errorf("missing counter = %d, want 0", got)
	}
	r.Inc("sent.req")
	r.Add("sent.fork", 3)
	byType := r.CountersWithPrefix("sent.")
	if len(byType) != 2 || byType["req"] != 1 || byType["fork"] != 3 {
		t.Errorf("CountersWithPrefix = %v", byType)
	}
}

func TestHistogramBucketsAndOverflow(t *testing.T) {
	h := NewHistogram([]sim.Time{10, 20, 30})
	for _, v := range []sim.Time{5, 10, 11, 25, 31, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// Bucket i counts v ≤ Bounds[i]: {5,10} ≤10, {11} ≤20, {25} ≤30,
	// {31,100} overflow.
	want := []uint64{2, 1, 1, 2}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (counts=%v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Overflow() != 2 {
		t.Errorf("overflow = %d, want 2", s.Overflow())
	}
	if s.Count != 6 || s.Min != 5 || s.Max != 100 {
		t.Errorf("summary = %+v", s)
	}
	if s.Mean != (5+10+11+25+31+100)/6 {
		t.Errorf("mean = %v", s.Mean)
	}
	if s.String() == "" {
		t.Error("empty histogram rendering")
	}
}

func TestHistogramEmptySnapshot(t *testing.T) {
	s := NewHistogram(nil).Snapshot()
	if s.Count != 0 || s.Mean != 0 || s.Overflow() != 0 {
		t.Errorf("empty snapshot = %+v", s)
	}
	if (HistogramSnapshot{}).Overflow() != 0 {
		t.Error("zero-value snapshot overflow")
	}
}

// TestInstrument drives a synthetic event stream through the bus and
// checks the registry ends up with the per-message-type accounting the
// telemetry report is built from.
func TestInstrument(t *testing.T) {
	bus := trace.NewBus(0)
	r := NewRegistry()
	Instrument(bus, r, nil)

	bus.Publish(&trace.Event{Kind: trace.KindSend, Node: 0, Peer: 1, Msg: "req", Size: 8})
	bus.Publish(&trace.Event{Kind: trace.KindSend, Node: 1, Peer: 0, Msg: "fork", Size: 16})
	bus.Publish(&trace.Event{Kind: trace.KindSend, Node: 0, Peer: 1, Msg: "req", Size: 8})
	bus.Publish(&trace.Event{Kind: trace.KindDeliver, Node: 1, Peer: 0, Msg: "req", Size: 8, Delay: 1500})
	bus.Publish(&trace.Event{Kind: trace.KindDrop, Node: 0, Peer: 1, Msg: "fork", Size: 16, Detail: "link-changed"})
	bus.Publish(&trace.Event{Kind: trace.KindState, Node: 1, Old: "hungry", New: "eating"})
	bus.Publish(&trace.Event{Kind: trace.KindState, Node: 1, Old: "eating", New: "thinking"})
	bus.Publish(&trace.Event{Kind: trace.KindLinkUp, Node: 0, Peer: 1})
	bus.Publish(&trace.Event{Kind: trace.KindLinkDown, Node: 0, Peer: 1})
	bus.Publish(&trace.Event{Kind: trace.KindMoveStart, Node: 2})
	bus.Publish(&trace.Event{Kind: trace.KindCrash, Node: 3})
	bus.Publish(&trace.Event{Kind: trace.KindRecolor, Node: 4, Detail: "2"})

	checks := map[string]uint64{
		CtrSent:         3,
		CtrDelivered:    1,
		CtrDropped:      1,
		CtrBytesSent:    32,
		CtrCSEntries:    1,
		CtrLinkUps:      1,
		CtrLinkDowns:    1,
		CtrMoves:        1,
		CtrCrashes:      1,
		CtrRecolorRns:   1,
		"sent.req":      2,
		"sent.fork":     1,
		"delivered.req": 1,
		"dropped.fork":  1,
	}
	for name, want := range checks {
		if got := r.Counter(name); got != want {
			t.Errorf("counter %q = %d, want %d", name, got, want)
		}
	}
	delays := r.Histogram(HistLinkDelay, nil).Snapshot()
	if delays.Count != 1 || delays.Max != 1500 {
		t.Errorf("delay histogram = %+v", delays)
	}

	snap := r.Snapshot()
	if snap.Counters[CtrSent] != 3 {
		t.Errorf("snapshot counters = %v", snap.Counters)
	}
	out := snap.String()
	if !strings.Contains(out, CtrSent) || !strings.Contains(out, HistLinkDelay) {
		t.Errorf("snapshot rendering missing names:\n%s", out)
	}
}

// Synthetic message types for the dense-counter test; the TypeNamer
// normalises them to "req" and "fork".
type (
	msgReq  struct{ _ [8]byte }
	msgFork struct{ _ [16]byte }
)

// TestInstrumentDenseIDs drives traffic events that carry minted MsgIDs
// and checks the dense per-type tables fold back into exactly the same
// string counters the map path produces — including mixed streams where
// some events carry an ID and some do not.
func TestInstrumentDenseIDs(t *testing.T) {
	bus := trace.NewBus(0)
	r := NewRegistry()
	namer := trace.NewTypeNamer()
	Instrument(bus, r, namer)

	reqName, reqSize, reqID := namer.Info(msgReq{})
	forkName, forkSize, forkID := namer.Info(msgFork{})
	if reqName != "req" || forkName != "fork" {
		t.Fatalf("normalised names = %q, %q", reqName, forkName)
	}

	bus.Publish(&trace.Event{Kind: trace.KindSend, Node: 0, Peer: 1, Msg: reqName, Size: reqSize, MsgID: reqID})
	bus.Publish(&trace.Event{Kind: trace.KindSend, Node: 1, Peer: 0, Msg: forkName, Size: forkSize, MsgID: forkID})
	bus.Publish(&trace.Event{Kind: trace.KindSend, Node: 0, Peer: 1, Msg: reqName, Size: reqSize, MsgID: reqID})
	bus.Publish(&trace.Event{Kind: trace.KindDeliver, Node: 1, Peer: 0, Msg: reqName, Size: reqSize, MsgID: reqID, Delay: 400})
	bus.Publish(&trace.Event{Kind: trace.KindDrop, Node: 0, Peer: 1, Msg: forkName, Size: forkSize, MsgID: forkID})
	// An emitter that never touched the namer: MsgID 0 takes the string path.
	bus.Publish(&trace.Event{Kind: trace.KindSend, Node: 2, Peer: 3, Msg: "probe", Size: 4})

	checks := map[string]uint64{
		CtrSent:         4,
		CtrDelivered:    1,
		CtrDropped:      1,
		CtrBytesSent:    uint64(2*reqSize + forkSize + 4),
		"sent.req":      2,
		"sent.fork":     1,
		"sent.probe":    1,
		"delivered.req": 1,
		"dropped.fork":  1,
	}
	for name, want := range checks {
		if got := r.Counter(name); got != want {
			t.Errorf("counter %q = %d, want %d", name, got, want)
		}
	}
	if _, ok := r.CountersWithPrefix(PrefixDelivered)["fork"]; ok {
		t.Error("delivered.fork should be absent, not zero")
	}
	// Folding must drain: a second read sees the same totals, not doubles.
	if got := r.Counter("sent.req"); got != 2 {
		t.Errorf("second read of sent.req = %d, want 2", got)
	}
}

func TestPerMeal(t *testing.T) {
	if got := PerMeal(100, 10); got != 10 {
		t.Errorf("PerMeal(100,10) = %v", got)
	}
	if got := PerMeal(100, 0); got != 0 {
		t.Errorf("PerMeal with zero meals = %v", got)
	}
}
