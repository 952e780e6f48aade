package livenet

// Tests for the shard loop's turn: up to turnMax events of the mailbox
// are one batch, and the frames its handlers sent leave together when it
// ends.

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"lme/internal/core"
	"lme/internal/graph"
)

// echoProtocol records the messages it handles and, when echoTo is a
// node, forwards each one there.
type echoProtocol struct {
	stubProtocol
	echoTo core.NodeID

	mu  sync.Mutex
	got []int
}

func (p *echoProtocol) OnMessage(_ core.NodeID, msg core.Message) {
	p.mu.Lock()
	p.got = append(p.got, msg.(confMsg).N)
	p.mu.Unlock()
	if p.echoTo >= 0 {
		p.env.Send(p.echoTo, msg)
	}
}

func (p *echoProtocol) handled() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]int(nil), p.got...)
}

// TestTurnCrashMidBatch queues [msg, crash, msg] before the loop starts,
// so the three are one batch: the first message is handled and what it
// sent still leaves at the end of the turn (it was sent before the
// crash), the third is discarded.
func TestTurnCrashMidBatch(t *testing.T) {
	g := graph.Line(2)
	sender := &echoProtocol{echoTo: 1}
	sink := &echoProtocol{echoTo: -1}
	c, err := New(Config{}, g, []core.Protocol{sender, sink})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	inbox := c.nodes[0].sh.inbox
	inbox.push(event{kind: evMessage, node: 0, from: 1, msg: confMsg{N: 1}})
	inbox.push(event{kind: evCrash, node: 0})
	inbox.push(event{kind: evMessage, node: 0, from: 1, msg: confMsg{N: 3}})
	if err := c.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer c.Stop() //nolint:errcheck

	if !waitFor(t, 5*time.Second, func() bool { return len(sink.handled()) >= 1 }) {
		t.Fatal("the frame sent before the crash, in the same turn, never arrived")
	}
	time.Sleep(10 * time.Millisecond)
	if got := sender.handled(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("crashed node handled %v, want only the message queued before the crash", got)
	}
	if got := sink.handled(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("peer received %v, want only the pre-crash frame", got)
	}
	if sent, delivered := c.MessagesSent(), c.MessagesDelivered(); sent != 1 || delivered != 1 {
		t.Fatalf("MessagesSent/Delivered = %d/%d, want 1/1", sent, delivered)
	}
}

// recTransport records what the cluster hands to Send and delivers
// nothing.
type recTransport struct {
	mu     sync.Mutex
	frames []Frame
}

func (r *recTransport) Start(DeliverFunc) error   { return nil }
func (r *recTransport) LinkDown(_, _ core.NodeID) {}
func (r *recTransport) Close() error              { return nil }
func (r *recTransport) Send(f Frame) {
	r.mu.Lock()
	r.frames = append(r.frames, f)
	r.mu.Unlock()
}

func (r *recTransport) sent() []Frame {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.frames)
}

// TestShardTurnBound queues 1000 messages for two nodes of one shard
// before the loop starts. However much mail waits, a turn is at most
// turnMax events: the frames leave in at least ⌈1000/turnMax⌉ flushes
// (the last frame of a flush is the uncorked one), each at most turnMax
// frames long, and every node handles its events — and its frames leave —
// in mailbox order.
func TestShardTurnBound(t *testing.T) {
	const events = 1000
	n := 4 * runtime.GOMAXPROCS(0) // at least four nodes per shard
	g := graph.Ring(n)
	protos := make([]core.Protocol, n)
	for i := range protos {
		protos[i] = &echoProtocol{echoTo: core.NodeID((i + 1) % n)}
	}
	rec := &recTransport{}
	c, err := New(Config{Transport: rec}, g, protos)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if c.nodes[0].sh != c.nodes[1].sh {
		t.Fatalf("nodes 0 and 1 of %d are on different shards", n)
	}
	var want [2][]int
	for i := 0; i < events; i++ {
		id := i % 3 % 2 // 0 1 0 0 1 0 …: the two nodes interleave unevenly
		c.nodes[id].sh.inbox.push(event{kind: evMessage, node: core.NodeID(id), from: core.NodeID(id + 1), msg: confMsg{N: i}})
		want[id] = append(want[id], i)
	}
	if err := c.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer c.Stop() //nolint:errcheck

	if !waitFor(t, 5*time.Second, func() bool { return len(rec.sent()) >= events }) {
		t.Fatalf("%d of %d frames left", len(rec.sent()), events)
	}
	frames := rec.sent()
	if len(frames) != events {
		t.Fatalf("%d frames left, want %d", len(frames), events)
	}
	flushes, run := 0, 0
	var got [2][]int
	for _, f := range frames {
		got[f.From] = append(got[f.From], f.Msg.(confMsg).N)
		if run++; run > turnMax {
			t.Fatalf("a flush of more than %d frames: the turn is not bounded", turnMax)
		}
		if !f.More {
			flushes++
			run = 0
		}
	}
	if frames[len(frames)-1].More {
		t.Error("the last frame left corked")
	}
	if least := (events + turnMax - 1) / turnMax; flushes < least {
		t.Errorf("%d events left in %d flushes, want at least %d", events, flushes, least)
	}
	for id := range want {
		if !slices.Equal(got[id], want[id]) {
			t.Errorf("node %d sent its frames out of mailbox order", id)
		}
		if h := protos[id].(*echoProtocol).handled(); !slices.Equal(h, want[id]) {
			t.Errorf("node %d handled its events out of mailbox order", id)
		}
	}
}
