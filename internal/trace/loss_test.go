package trace

import "testing"

// TestBusOverwrittenCounter: the ring recycles slots silently; the
// counter makes the loss visible. No ring, no loss.
func TestBusOverwrittenCounter(t *testing.T) {
	b := NewBus(4)
	for i := 0; i < 4; i++ {
		b.Publish(&Event{Kind: KindNote})
	}
	if got := b.Overwritten(); got != 0 {
		t.Fatalf("Overwritten after filling the ring = %d", got)
	}
	for i := 0; i < 6; i++ {
		b.Publish(&Event{Kind: KindNote})
	}
	if got := b.Overwritten(); got != 6 {
		t.Fatalf("Overwritten = %d, want 6", got)
	}
	if got := len(b.Recent(100)); got != 4 {
		t.Fatalf("Recent retains %d events, want the ring's 4", got)
	}
	ringless := NewBus(0)
	ringless.Publish(&Event{Kind: KindNote})
	if got := ringless.Overwritten(); got != 0 {
		t.Fatalf("ringless Overwritten = %d", got)
	}
}

// TestBusSinkDroppedCounter: the batch whose write failed and everything
// published after the sticky error count as dropped.
func TestBusSinkDroppedCounter(t *testing.T) {
	b := NewBus(0)
	if got := b.SinkDropped(); got != 0 {
		t.Fatalf("fresh SinkDropped = %d", got)
	}
	b.SetSink(failWriter{})
	b.Publish(&Event{Kind: KindNote}) // batched, lost when the flush fails
	if err := b.Flush(); err == nil {
		t.Fatal("Flush to a failing writer reported success")
	}
	b.Publish(&Event{Kind: KindNote}) // skipped: sticky error
	b.Publish(&Event{Kind: KindNote}) // skipped
	if got := b.SinkDropped(); got != 3 {
		t.Fatalf("SinkDropped = %d, want 3", got)
	}
	if b.SinkErr() == nil {
		t.Fatal("sticky sink error lost")
	}
}
