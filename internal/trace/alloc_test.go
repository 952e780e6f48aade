package trace

import (
	"io"
	"testing"
)

// eventMix is a slice of trace events weighted roughly like a real run's
// stream: mostly traffic, some state transitions, the occasional link,
// doorway, drop and note event.
func eventMix() []Event {
	return []Event{
		{At: 1_000, Kind: KindSend, Node: 3, Peer: 7, Msg: "req", Size: 24, MsgSeq: 41},
		{At: 1_200, Kind: KindDeliver, Node: 7, Peer: 3, Msg: "req", Size: 24, MsgSeq: 41, Delay: 200},
		{At: 1_250, Kind: KindSend, Node: 7, Peer: 3, Msg: "fork", Size: 16, MsgSeq: 42},
		{At: 1_400, Kind: KindDeliver, Node: 3, Peer: 7, Msg: "fork", Size: 16, MsgSeq: 42, Delay: 150},
		{At: 1_500, Kind: KindState, Node: 3, Peer: NoNode, Old: "hungry", New: "eating"},
		{At: 1_700, Kind: KindSend, Node: 3, Peer: 0, Msg: "notification", Size: 32, MsgSeq: 43},
		{At: 1_900, Kind: KindDeliver, Node: 0, Peer: 3, Msg: "notification", Size: 32, MsgSeq: 43, Delay: 200},
		{At: 2_000, Kind: KindState, Node: 3, Peer: NoNode, Old: "eating", New: "thinking"},
		{At: 2_100, Kind: KindLinkUp, Node: 2, Peer: 9, Detail: "9"},
		{At: 2_200, Kind: KindDoorway, Node: 5, Peer: NoNode, New: "cross", Detail: "adr"},
		{At: 2_300, Kind: KindDrop, Node: 9, Peer: 2, Msg: "req", Size: 24, MsgSeq: 7, Detail: "link-changed"},
		{At: 2_400, Kind: KindNote, Node: 5, Peer: NoNode, Detail: "recolor run 3: palette {1,4,6}"},
	}
}

// publishAllocs publishes the mix on b until its buffers have grown, then
// reports what one more pass over the mix allocates.
func publishAllocs(b *Bus) float64 {
	mix := eventMix()
	pass := func() {
		for _, e := range mix {
			b.Publish(&e)
		}
	}
	for range 1_000 {
		pass()
	}
	return testing.AllocsPerRun(200, pass)
}

// TestPublishFanoutDoesNotAllocate: dispatch to a realistic observer
// population — a multi-kind subscriber, an every-kind one, two
// single-kind ones and a retained ring — allocates nothing per event.
func TestPublishFanoutDoesNotAllocate(t *testing.T) {
	b := NewBus(1024)
	var sink uint64
	b.Subscribe(func(e *Event) { sink += uint64(e.Size) },
		KindSend, KindDeliver, KindDrop, KindState, KindLinkUp, KindLinkDown,
		KindMoveStart, KindCrash, KindRecolor)
	b.Subscribe(func(e *Event) { sink += uint64(e.Node) })
	b.Subscribe(func(*Event) { sink++ }, KindState)
	b.Subscribe(func(*Event) { sink++ }, KindDoorway)
	if avg := publishAllocs(b); avg != 0 {
		t.Fatalf("Publish with subscribers allocates %.2f times per pass", avg)
	}
	if sink == 0 {
		t.Fatal("subscribers saw nothing")
	}
}

// TestSinkPublishDoesNotAllocate: the JSONL sink encodes every event into
// its batch buffer without allocating — the per-event cost of a
// -trace-out run.
func TestSinkPublishDoesNotAllocate(t *testing.T) {
	b := NewBus(0)
	b.SetSink(io.Discard)
	if avg := publishAllocs(b); avg != 0 {
		t.Fatalf("Publish to the JSONL sink allocates %.2f times per pass", avg)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
}
