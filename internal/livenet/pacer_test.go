package livenet

import (
	"context"
	"runtime"
	"slices"
	"testing"
	"time"

	"lme/internal/core"
	"lme/internal/graph"
)

// TestPacerKeepsTimersHonest holds one lease on an otherwise idle cluster
// and sleeps 200 µs at a time, as a client holding a critical section
// would. Left to itself the runtime parks the idle process in a poll with
// a 1 ms floor and every such sleep takes more than a millisecond; with
// the pacer running (the lease slot is taken) a sleep ends at the next
// 500 µs tick. Once the lease is gone the pacer has nothing to run on.
func TestPacerKeepsTimersHonest(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the pacer needs timerfd")
	}
	g := graph.Line(2)
	c, err := New(Config{LeaseTTL: time.Minute}, g, []core.Protocol{&stubProtocol{}, &stubProtocol{}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := c.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer c.Stop() //nolint:errcheck
	lease, err := c.Node(0).Acquire(context.Background())
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if got := c.busy.Load(); got != 1 {
		t.Fatalf("busy = %d with one lease held", got)
	}
	sleeps := make([]time.Duration, 200)
	for i := range sleeps {
		begin := time.Now()
		time.Sleep(200 * time.Microsecond)
		sleeps[i] = time.Since(begin)
	}
	slices.Sort(sleeps)
	if median := sleeps[len(sleeps)/2]; median > 900*time.Microsecond {
		t.Errorf("a 200 µs sleep takes %v at the median while a lease is held; the pacer is not pacing", median)
	}
	if err := lease.Release(); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if got := c.busy.Load(); got != 0 {
		t.Fatalf("busy = %d after the only lease was released", got)
	}
}
