package trace

import (
	"bytes"
	"strings"
	"testing"
)

// TestSubscriberOrderWithinKind: the kind-indexed fan-out must preserve
// subscription order among the consumers of one kind, including
// every-kind subscribers interleaved with filtered ones.
func TestSubscriberOrderWithinKind(t *testing.T) {
	b := NewBus(0)
	var order []string
	b.Subscribe(func(*Event) { order = append(order, "send-1") }, KindSend)
	b.Subscribe(func(*Event) { order = append(order, "all-2") })
	b.Subscribe(func(*Event) { order = append(order, "send-3") }, KindSend, KindDeliver)
	b.Subscribe(func(*Event) { order = append(order, "all-4") })
	b.Publish(&Event{Kind: KindSend})
	want := []string{"send-1", "all-2", "send-3", "all-4"}
	if strings.Join(order, ",") != strings.Join(want, ",") {
		t.Fatalf("dispatch order = %v, want %v", order, want)
	}
	order = nil
	b.Publish(&Event{Kind: KindDeliver})
	want = []string{"all-2", "send-3", "all-4"}
	if strings.Join(order, ",") != strings.Join(want, ",") {
		t.Fatalf("deliver dispatch order = %v, want %v", order, want)
	}
}

// TestNestedPublish: a subscriber may publish from inside its callback.
// Each nesting level reads its own record, so the two inner publishes
// below (which grow the bus's stack of records while the outer frames
// still hold pointers into it) leave the outer event intact for the
// subscribers after them, and the inner subscribers see the inner events.
func TestNestedPublish(t *testing.T) {
	b := NewBus(0)
	type seen struct {
		who  string
		kind Kind
		node int
		seq  uint64
	}
	var got []seen
	see := func(who string) func(*Event) {
		return func(e *Event) { got = append(got, seen{who, e.Kind, int(e.Node), e.Seq}) }
	}
	b.Subscribe(func(e *Event) {
		b.Publish(&Event{Kind: KindDeliver, Node: 20 + e.Node})
	}, KindSend)
	b.Subscribe(func(e *Event) {
		b.Publish(&Event{Kind: KindNote, Node: 10 + e.Node})
	}, KindDeliver)
	b.Subscribe(see("send"), KindSend)
	b.Subscribe(see("deliver"), KindDeliver)
	b.Subscribe(see("note"), KindNote)
	b.Publish(&Event{Kind: KindSend, Node: 1})
	b.Publish(&Event{Kind: KindSend, Node: 2})
	want := []seen{
		{"note", KindNote, 31, 3},
		{"deliver", KindDeliver, 21, 2},
		{"send", KindSend, 1, 1},
		{"note", KindNote, 32, 6},
		{"deliver", KindDeliver, 22, 5},
		{"send", KindSend, 2, 4},
	}
	if len(got) != len(want) {
		t.Fatalf("subscribers saw %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("subscribers saw %+v, want %+v", got, want)
		}
	}
}

// TestSubscribeDuplicateKind: a kind repeated in the Subscribe call still
// delivers each event once, as the old boolean filter did.
func TestSubscribeDuplicateKind(t *testing.T) {
	b := NewBus(0)
	calls := 0
	b.Subscribe(func(*Event) { calls++ }, KindSend, KindSend, KindSend)
	b.Publish(&Event{Kind: KindSend})
	if calls != 1 {
		t.Fatalf("duplicated kind delivered %d times, want 1", calls)
	}
}

// TestOutOfRangeKindDispatch: events with kinds outside the schema reach
// only the every-kind subscribers (the old filter scan panicked on a
// filtered subscriber instead).
func TestOutOfRangeKindDispatch(t *testing.T) {
	b := NewBus(0)
	var all, filtered int
	b.Subscribe(func(*Event) { filtered++ }, KindSend)
	b.Subscribe(func(*Event) { all++ })
	b.Publish(&Event{Kind: Kind(200)})
	b.Publish(&Event{Kind: numKinds})
	b.Publish(&Event{}) // kind 0
	if filtered != 0 {
		t.Errorf("filtered subscriber saw %d out-of-range events", filtered)
	}
	if all != 3 {
		t.Errorf("every-kind subscriber saw %d events, want 3", all)
	}
}

// TestWantsMask: Wants must track exactly who could observe each kind —
// per-kind subscribers for their kinds, ring and sink for everything —
// and fall back after the sink detaches.
func TestWantsMask(t *testing.T) {
	b := NewBus(0)
	for _, k := range Kinds() {
		if b.Wants(k) {
			t.Fatalf("bare bus Wants(%v)", k)
		}
	}
	b.Subscribe(func(*Event) {}, KindSend, KindDrop)
	for _, k := range Kinds() {
		want := k == KindSend || k == KindDrop
		if got := b.Wants(k); got != want {
			t.Errorf("Wants(%v) = %v after filtered subscribe, want %v", k, got, want)
		}
	}
	if b.Wants(Kind(200)) || b.Wants(0) {
		t.Error("out-of-range kind wanted with only filtered subscribers")
	}

	// A sink makes every kind wanted; detaching it falls back.
	b.SetSink(&bytes.Buffer{})
	if !b.Wants(KindNote) || !b.Wants(Kind(200)) {
		t.Error("sinked bus must want every kind")
	}
	b.SetSink(nil)
	if b.Wants(KindNote) {
		t.Error("detached sink left KindNote wanted")
	}
	if !b.Wants(KindSend) {
		t.Error("sink detach forgot the subscriber")
	}

	// An every-kind subscriber wants everything, schema or not.
	b.Subscribe(func(*Event) {})
	if !b.Wants(KindNote) || !b.Wants(Kind(200)) {
		t.Error("every-kind subscriber must want every kind")
	}

	// A ring wants everything.
	if r := NewBus(8); !r.Wants(KindNote) || !r.Wants(Kind(200)) {
		t.Error("ring bus must want every kind")
	}
}

// countingWriter records each Write it receives.
type countingWriter struct {
	writes    int
	firstSize int
	buf       bytes.Buffer
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes == 1 {
		w.firstSize = len(p)
	}
	return w.buf.Write(p)
}

// TestSinkBatching: events accumulate in the scratch buffer and hit the
// writer in sinkFlushBytes-sized batches; Flush drains the tail and the
// concatenation of batches is the exact JSONL stream.
func TestSinkBatching(t *testing.T) {
	w := &countingWriter{}
	b := NewBus(0)
	b.SetSink(w)
	e := Event{Kind: KindNote, Node: 1, Peer: NoNode, Detail: strings.Repeat("x", 100)}
	line := len(e.AppendJSON(nil)) + 1
	const n = 600 // ≈72 KiB of lines: at least two threshold crossings
	for i := 0; i < n; i++ {
		b.Publish(&e)
		if w.writes > 0 && (i+1)*(line+2) < sinkFlushBytes {
			t.Fatalf("sink wrote after %d events (≤%d buffered bytes), below the %d threshold",
				i+1, (i+1)*(line+2), sinkFlushBytes)
		}
	}
	if w.writes < 2 {
		t.Fatalf("sink wrote %d batches for %d events, want ≥ 2", w.writes, n)
	}
	if w.firstSize < sinkFlushBytes {
		t.Fatalf("first batch was %d bytes, want ≥ %d", w.firstSize, sinkFlushBytes)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(w.buf.String(), "\n"); got != n {
		t.Fatalf("sink delivered %d lines, want %d", got, n)
	}
	if b.SinkDropped() != 0 {
		t.Fatalf("healthy batched sink dropped %d events", b.SinkDropped())
	}
}

// shortWriter accepts one byte fewer than offered and reports no error —
// the silent-truncation case the sink must convert into io.ErrShortWrite.
type shortWriter struct{}

func (shortWriter) Write(p []byte) (int, error) { return len(p) - 1, nil }

func TestSinkShortWrite(t *testing.T) {
	b := NewBus(0)
	b.SetSink(shortWriter{})
	b.Publish(&Event{Kind: KindNote})
	b.Publish(&Event{Kind: KindNote})
	if err := b.Flush(); err == nil || !strings.Contains(err.Error(), "short write") {
		t.Fatalf("Flush = %v, want a short-write error", err)
	}
	if got := b.SinkDropped(); got != 2 {
		t.Fatalf("SinkDropped after short write = %d, want the whole batch (2)", got)
	}
}

// TestSetSinkSwitchFlushes: replacing (or detaching) the sink first
// drains what was encoded for the old writer, so no events are stranded
// in the scratch buffer or delivered to the wrong file.
func TestSetSinkSwitchFlushes(t *testing.T) {
	var first, second bytes.Buffer
	b := NewBus(0)
	b.SetSink(&first)
	b.Publish(&Event{Kind: KindNote, Node: 1, Peer: NoNode})
	b.SetSink(&second)
	if got := strings.Count(first.String(), "\n"); got != 1 {
		t.Fatalf("old sink holds %d lines after switch, want 1", got)
	}
	b.Publish(&Event{Kind: KindNote, Node: 2, Peer: NoNode})
	b.Publish(&Event{Kind: KindNote, Node: 3, Peer: NoNode})
	b.SetSink(nil)
	if got := strings.Count(second.String(), "\n"); got != 2 {
		t.Fatalf("new sink holds %d lines after detach, want 2", got)
	}
	if b.SinkDropped() != 0 || b.SinkErr() != nil {
		t.Fatalf("healthy switch lost events: dropped=%d err=%v", b.SinkDropped(), b.SinkErr())
	}
}

// TestOverwrittenUnderBatchSink: the ring-loss counter is independent of
// the sink; attaching the batched sink must not change it, and a healthy
// sink drops nothing.
func TestOverwrittenUnderBatchSink(t *testing.T) {
	var buf bytes.Buffer
	b := NewBus(4)
	b.SetSink(&buf)
	for i := 0; i < 10; i++ {
		b.Publish(&Event{Kind: KindNote, Node: 0, Peer: NoNode})
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := b.Overwritten(); got != 6 {
		t.Fatalf("Overwritten = %d, want 6", got)
	}
	if got := b.SinkDropped(); got != 0 {
		t.Fatalf("SinkDropped = %d, want 0", got)
	}
	if got := strings.Count(buf.String(), "\n"); got != 10 {
		t.Fatalf("sink holds %d lines, want all 10 despite the 4-slot ring", got)
	}
}

// TestTypeNamerInfo: dense IDs are minted in first-seen order, cached,
// and shared across Go types that normalise to the same name.
func TestTypeNamerInfo(t *testing.T) {
	type msgFork struct{ A, B int64 }
	type cmFork struct{ X int32 }
	type msgReq struct{}
	tn := NewTypeNamer()
	name, size, id := tn.Info(msgFork{})
	if name != "fork" || size != 16 || id != 1 {
		t.Fatalf("Info(msgFork) = %q/%d/%d, want fork/16/1", name, size, id)
	}
	if _, _, id2 := tn.Info(msgReq{}); id2 != 2 {
		t.Fatalf("second type minted ID %d, want 2", id2)
	}
	if _, _, again := tn.Info(msgFork{A: 5}); again != 1 {
		t.Fatalf("cached type re-minted ID %d, want 1", again)
	}
	// A different Go type with the same normalised name shares the ID.
	if n, _, idShared := tn.Info(cmFork{}); n != "fork" || idShared != 1 {
		t.Fatalf("Info(cmFork) = %q/%d, want fork/1", n, idShared)
	}
	if got := tn.NumTypes(); got != 2 {
		t.Fatalf("NumTypes = %d, want 2", got)
	}
	if got := tn.TypeName(1); got != "fork" {
		t.Fatalf("TypeName(1) = %q, want fork", got)
	}
	if got := tn.TypeName(0); got != "" {
		t.Fatalf("TypeName(0) = %q, want empty", got)
	}
	if got := tn.TypeName(9); got != "" {
		t.Fatalf("TypeName(9) = %q, want empty", got)
	}
}
