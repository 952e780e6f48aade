package livenet

// Tests for the node loop's turn: the whole mailbox is one batch, and the
// frames its handlers sent leave together when it ends.

import (
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
	inbox := c.nodes[0].inbox
	inbox.push(event{kind: evMessage, from: 1, msg: confMsg{N: 1}})
	inbox.push(event{kind: evCrash})
	inbox.push(event{kind: evMessage, from: 1, msg: confMsg{N: 3}})
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
