package livenet_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"lme/internal/baseline"
	"lme/internal/core"
	"lme/internal/graph"
	"lme/internal/livenet"
	"lme/internal/lme1"
	"lme/internal/lme2"
	"lme/internal/trace"
)

// protocolsFor builds n instances with the given constructor.
func protocolsFor(n int, build func() core.Protocol) []core.Protocol {
	out := make([]core.Protocol, n)
	for i := range out {
		out[i] = build()
	}
	return out
}

func runCluster(t *testing.T, g *graph.Graph, protos []core.Protocol, d time.Duration) *livenet.Cluster {
	t.Helper()
	c, err := livenet.New(livenet.Config{Seed: 1}, g, protos)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(d); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestLiveAlg2Line(t *testing.T) {
	g := graph.Line(6)
	c := runCluster(t, g, protocolsFor(6, func() core.Protocol { return lme2.New() }), 300*time.Millisecond)
	meals := c.Meals()
	for i := 0; i < 6; i++ {
		if meals[core.NodeID(i)] == 0 {
			t.Fatalf("node %d never ate: %v", i, meals)
		}
	}
	if v := c.Violations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

func TestLiveAlg2Clique(t *testing.T) {
	g := graph.Clique(5)
	c := runCluster(t, g, protocolsFor(5, func() core.Protocol { return lme2.New() }), 400*time.Millisecond)
	for i := 0; i < 5; i++ {
		if c.Meals()[core.NodeID(i)] == 0 {
			t.Fatalf("node %d never ate under full contention", i)
		}
	}
}

func TestLiveAlg1Greedy(t *testing.T) {
	g := graph.Grid(2, 3)
	protos := protocolsFor(6, func() core.Protocol {
		return lme1.New(lme1.Config{Variant: lme1.VariantGreedy})
	})
	c := runCluster(t, g, protos, 400*time.Millisecond)
	for i := 0; i < 6; i++ {
		if c.Meals()[core.NodeID(i)] == 0 {
			t.Fatalf("node %d never ate", i)
		}
	}
}

func TestLiveChandyMisra(t *testing.T) {
	g := graph.Ring(7)
	protos := protocolsFor(7, func() core.Protocol { return baseline.NewChandyMisra() })
	c := runCluster(t, g, protos, 300*time.Millisecond)
	for i := 0; i < 7; i++ {
		if c.Meals()[core.NodeID(i)] == 0 {
			t.Fatalf("node %d never ate", i)
		}
	}
}

func TestLiveRejectsMismatchedProtocols(t *testing.T) {
	if _, err := livenet.New(livenet.Config{}, graph.Line(3), nil); err == nil {
		t.Fatal("mismatched protocol count accepted")
	}
}

// TestLiveCrashStaysLocal exercises CrashAfter: a crashed node's distant
// ring neighbours keep making progress and safety holds throughout.
func TestLiveCrashStaysLocal(t *testing.T) {
	g := graph.Ring(8)
	c, err := livenet.New(livenet.Config{Seed: 2}, g, protocolsFor(8, func() core.Protocol { return lme2.New() }))
	if err != nil {
		t.Fatal(err)
	}
	c.CrashAfter(3, 100*time.Millisecond)
	if err := c.Run(400 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	dist := g.Distances(3)
	for i := 0; i < 8; i++ {
		if i != 3 && dist[i] >= 3 && c.Meals()[core.NodeID(i)] == 0 {
			t.Fatalf("node %d at distance %d starved", i, dist[i])
		}
	}
}

// liveTransports builds the ring's transport under test: nil selects the
// cluster's own channel transport.
var liveTransports = map[string]func(*testing.T, *graph.Graph) livenet.Transport{
	"channel": func(*testing.T, *graph.Graph) livenet.Transport { return nil },
	"udp": func(t *testing.T, g *graph.Graph) livenet.Transport {
		tr, err := livenet.NewUDPTransport(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	},
}

// dineRounds starts the cluster and has every node's client acquire and
// release rounds times, then waits until the message flow has stopped:
// every frame sent was delivered and the counts hold still.
func dineRounds(t *testing.T, c *livenet.Cluster, n, rounds int) {
	t.Helper()
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var clients sync.WaitGroup
	for i := 0; i < n; i++ {
		clients.Add(1)
		go func(id core.NodeID) {
			defer clients.Done()
			for r := 0; r < rounds; r++ {
				lease, err := c.Node(id).Acquire(ctx)
				if err != nil {
					t.Errorf("node %d round %d: %v", id, r, err)
					return
				}
				lease.Release() //nolint:errcheck
			}
		}(core.NodeID(i))
	}
	clients.Wait()
	var last uint64
	for deadline := time.Now().Add(10 * time.Second); ; {
		sent, delivered := c.MessagesSent(), c.MessagesDelivered()
		if sent > 0 && sent == delivered && sent == last {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster never went quiet: sent %d, delivered %d", sent, delivered)
		}
		last = sent
		time.Sleep(20 * time.Millisecond)
	}
}

// TestLiveBusIsPayPerSubscriber pins the dark path: a cluster nobody
// observes publishes nothing at all, and its message counts — which no
// longer come from a bus subscriber — agree with the transport's.
func TestLiveBusIsPayPerSubscriber(t *testing.T) {
	for name, mk := range liveTransports {
		t.Run(name, func(t *testing.T) {
			g := graph.Ring(6)
			c, err := livenet.New(livenet.Config{Seed: 3, Transport: mk(t, g)}, g,
				protocolsFor(6, func() core.Protocol { return lme2.New() }))
			if err != nil {
				t.Fatal(err)
			}
			dineRounds(t, c, 6, 20)
			ts := c.TransportStats()
			if sent := c.MessagesSent(); sent != ts.FramesSent {
				t.Errorf("MessagesSent = %d, transport frames_sent = %d", sent, ts.FramesSent)
			}
			if delivered := c.MessagesDelivered(); delivered != ts.FramesDelivered {
				t.Errorf("MessagesDelivered = %d, transport frames_delivered = %d", delivered, ts.FramesDelivered)
			}
			if err := c.Stop(); err != nil {
				t.Fatal(err)
			}
			if total := c.Bus().Total(); total != 0 {
				t.Errorf("an unobserved cluster published %d events", total)
			}
		})
	}
}

// TestLiveSubscriberSeesEveryFrame is the lit path: with a subscriber
// attached before Start, every frame is one send and one deliver event,
// the stream is monotone in time, and each frame's send precedes its
// deliver.
func TestLiveSubscriberSeesEveryFrame(t *testing.T) {
	for name, mk := range liveTransports {
		t.Run(name, func(t *testing.T) {
			g := graph.Ring(6)
			c, err := livenet.New(livenet.Config{Seed: 4, Transport: mk(t, g)}, g,
				protocolsFor(6, func() core.Protocol { return lme2.New() }))
			if err != nil {
				t.Fatal(err)
			}
			// The bus runs subscribers one at a time, so plain state is
			// enough; it is read after Stop.
			type frameID struct {
				from core.NodeID
				mseq uint64
			}
			var sends, delivers uint64
			var prev trace.Event
			sentSeen := make(map[frameID]bool)
			c.Bus().Subscribe(func(e *trace.Event) {
				if e.At < prev.At {
					t.Errorf("event %v published after %v: the stream is not monotone", *e, prev)
				}
				prev = *e
				switch e.Kind {
				case trace.KindSend:
					sends++
					sentSeen[frameID{e.Node, e.MsgSeq}] = true
				case trace.KindDeliver:
					delivers++
					if !sentSeen[frameID{e.Peer, e.MsgSeq}] {
						t.Errorf("deliver %v published before its send", e)
					}
				}
			}, trace.KindSend, trace.KindDeliver)
			dineRounds(t, c, 6, 20)
			if err := c.Stop(); err != nil {
				t.Fatal(err)
			}
			if sent := c.MessagesSent(); sends != sent || sends == 0 {
				t.Errorf("%d send events, MessagesSent = %d", sends, sent)
			}
			if delivered := c.MessagesDelivered(); delivers != delivered || delivers == 0 {
				t.Errorf("%d deliver events, MessagesDelivered = %d", delivers, delivered)
			}
		})
	}
}
