package span

import (
	"bytes"
	"strings"
	"testing"

	"lme/internal/core"
	"lme/internal/sim"
	"lme/internal/trace"
)

// ev builders keep the fold tests readable: each returns one event with
// only the fields the collector consults.

func evState(node core.NodeID, old, new string, at sim.Time) trace.Event {
	return trace.Event{Kind: trace.KindState, Node: node, Peer: trace.NoNode, Old: old, New: new, At: at}
}

func evSend(from, to core.NodeID, msg string, seq uint64, at sim.Time) trace.Event {
	return trace.Event{Kind: trace.KindSend, Node: from, Peer: to, Msg: msg, MsgSeq: seq, At: at}
}

func evDeliver(to, from core.NodeID, msg string, seq uint64, at sim.Time) trace.Event {
	return trace.Event{Kind: trace.KindDeliver, Node: to, Peer: from, Msg: msg, MsgSeq: seq, At: at}
}

func evDoorway(node core.NodeID, action, name string, at sim.Time) trace.Event {
	return trace.Event{Kind: trace.KindDoorway, Node: node, Peer: trace.NoNode, New: action, Detail: name, At: at}
}

func evCrash(node core.NodeID, at sim.Time) trace.Event {
	return trace.Event{Kind: trace.KindCrash, Node: node, Peer: trace.NoNode, At: at}
}

func feed(c *Collector, events ...trace.Event) {
	for _, e := range events {
		c.Feed(&e)
	}
}

// TestCollectorAttemptLifecycle walks one attempt through the full
// doorway → collect → eat pipeline and checks phases, boundaries and the
// causal attribution of the eating transition.
func TestCollectorAttemptLifecycle(t *testing.T) {
	c := New()
	feed(c,
		evState(3, "thinking", "hungry", 100),
		// Doorway entry at the same instant: the zero-length collect
		// phase must be dropped.
		evDoorway(3, "enter", "AD^r", 100),
		evDoorway(3, "cross", "AD^r", 150),
		evSend(3, 4, "req", 1, 160),
		evDeliver(3, 4, "fork", 9, 200),
		evState(3, "hungry", "eating", 200),
		evState(3, "eating", "thinking", 250),
	)
	c.Finalize(300)

	spans := c.Spans()
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(spans))
	}
	s := spans[0]
	if s.Node != 3 || s.Attempt != 1 || s.Start != 100 || s.End != 250 || s.Outcome != OutcomeAte {
		t.Fatalf("span = %+v", s)
	}
	want := []struct {
		name, detail string
		start, end   sim.Time
	}{
		{PhaseDoorway, "AD^r", 100, 150},
		{PhaseCollect, "", 150, 200},
		{PhaseEat, "", 200, 250},
	}
	if len(s.Phases) != len(want) {
		t.Fatalf("phases = %+v", s.Phases)
	}
	for i, w := range want {
		p := s.Phases[i]
		if p.Name != w.name || p.Detail != w.detail || p.Start != w.start || p.End != w.end {
			t.Fatalf("phase %d = %+v, want %+v", i, p, w)
		}
	}
	// The collect phase closed while processing node 4's fork delivery:
	// same instant means caused-by on the single simulation thread.
	by := s.Phases[1].UnblockedBy
	if by == nil || by.From != 4 || by.Seq != 9 || by.Msg != "fork" {
		t.Fatalf("UnblockedBy = %+v", by)
	}
	// The doorway crossing happened with no same-instant delivery.
	if s.Phases[0].UnblockedBy != nil {
		t.Fatalf("doorway phase attributed to %+v", s.Phases[0].UnblockedBy)
	}
	if s.Dur() != 150 || s.PhaseDur(PhaseDoorway) != 50 {
		t.Fatalf("durations: %v / %v", s.Dur(), s.PhaseDur(PhaseDoorway))
	}
}

// TestCollectorDemotionSurvives pins the mobility rule: eating → hungry
// does not close the attempt, it increments Demotions and resumes
// collection.
func TestCollectorDemotionSurvives(t *testing.T) {
	c := New()
	feed(c,
		evState(1, "thinking", "hungry", 100),
		evState(1, "hungry", "eating", 200),
		evState(1, "eating", "hungry", 220), // demoted by mobility
		evState(1, "hungry", "eating", 300),
		evState(1, "eating", "thinking", 320),
	)
	c.Finalize(400)
	spans := c.Spans()
	if len(spans) != 1 {
		t.Fatalf("demotion split the attempt: %d spans", len(spans))
	}
	s := spans[0]
	if s.Demotions != 1 || s.Outcome != OutcomeAte || s.Start != 100 || s.End != 320 {
		t.Fatalf("span = %+v", s)
	}
	// eat, collect, eat after the initial collect.
	names := make([]string, 0, len(s.Phases))
	for _, p := range s.Phases {
		names = append(names, p.Name)
	}
	if got := strings.Join(names, " "); got != "collect eat collect eat" {
		t.Fatalf("phases = %q", got)
	}
}

// TestCollectorRecolorPhase checks the lme1 pipeline: crossing SD^r opens
// PhaseRecolor (the recolouring module runs behind it), the next doorway
// entry closes it, and KindRecolor increments the attempt's counter.
func TestCollectorRecolorPhase(t *testing.T) {
	c := New()
	feed(c,
		evState(2, "thinking", "hungry", 100),
		evDoorway(2, "enter", "SD^r", 110),
		evDoorway(2, "cross", "SD^r", 150),
		trace.Event{Kind: trace.KindRecolor, Node: 2, Peer: trace.NoNode, Detail: "4", At: 180},
		evDoorway(2, "enter", "AD^f", 200),
		evDoorway(2, "cross", "AD^f", 240),
		evState(2, "hungry", "eating", 280),
		evState(2, "eating", "thinking", 300),
	)
	c.Finalize(400)
	spans := c.Spans()
	if len(spans) != 1 {
		t.Fatalf("spans = %d", len(spans))
	}
	s := spans[0]
	if s.Recolors != 1 {
		t.Fatalf("recolors = %d", s.Recolors)
	}
	var names []string
	for _, p := range s.Phases {
		name := p.Name
		if p.Detail != "" {
			name += ":" + p.Detail
		}
		names = append(names, name)
	}
	want := "collect doorway:SD^r recolor doorway:AD^f collect eat"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("phases = %q, want %q", got, want)
	}
}

// TestCollectorCrashAndOpenOutcomes covers the two non-eating closures:
// a crash closes the attempt with OutcomeCrashed at crash time, and
// Finalize closes survivors with OutcomeOpen at the run's end.
func TestCollectorCrashAndOpenOutcomes(t *testing.T) {
	c := New()
	feed(c,
		evState(0, "thinking", "hungry", 100),
		evState(1, "thinking", "hungry", 120),
		evCrash(0, 200),
	)
	c.Finalize(500)
	spans := c.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d", len(spans))
	}
	if s := spans[0]; s.Node != 0 || s.Outcome != OutcomeCrashed || s.End != 200 {
		t.Fatalf("crashed span = %+v", s)
	}
	if s := spans[1]; s.Node != 1 || s.Outcome != OutcomeOpen || s.End != 500 {
		t.Fatalf("open span = %+v", s)
	}
	sum := c.Summary()
	if sum.Attempts != 2 || sum.Crashed != 1 || sum.Open != 1 || sum.Ate != 0 {
		t.Fatalf("summary = %+v", sum)
	}
}

// TestWaitEdgesFork exercises the fork half of the wait-for graph: an
// unanswered request is an edge; the granting delivery, a link failure or
// an eating/demotion transition removes it.
func TestWaitEdgesFork(t *testing.T) {
	c := New()
	c.SeedLink(0, 1)
	feed(c,
		evState(0, "thinking", "hungry", 10),
		evSend(0, 1, "req", 1, 20),
	)
	if e := c.WaitEdges(); len(e) != 1 || e[0] != (Edge{From: 0, To: 1, Why: "fork"}) {
		t.Fatalf("edges = %+v", e)
	}
	// The fork arrives: the wait is over.
	feed(c, evDeliver(0, 1, "fork", 3, 30))
	if e := c.WaitEdges(); len(e) != 0 {
		t.Fatalf("edges after grant = %+v", e)
	}
	// Re-request, then the link drops: both directions forget the wait.
	feed(c, evSend(0, 1, "req", 2, 40))
	feed(c, trace.Event{Kind: trace.KindLinkDown, Node: 0, Peer: 1, At: 50})
	if e := c.WaitEdges(); len(e) != 0 {
		t.Fatalf("edges after link down = %+v", e)
	}
	// Request again, then a demotion clears the node's own waits.
	feed(c, trace.Event{Kind: trace.KindLinkUp, Node: 0, Peer: 1, At: 60})
	feed(c, evSend(0, 1, "req", 3, 70))
	feed(c, evState(0, "eating", "hungry", 80))
	if e := c.WaitEdges(); len(e) != 0 {
		t.Fatalf("edges after demotion = %+v", e)
	}
}

// TestWaitEdgesDoorway exercises the doorway half: a node at a doorway
// entry waits on every adjacent node behind that doorway, with the
// asynchronous observed-once exemption and the crashed-frozen-position
// rule.
func TestWaitEdgesDoorway(t *testing.T) {
	// Synchronous doorway: behind blocks entrants regardless of order.
	c := New()
	c.SeedLink(0, 1)
	feed(c,
		evDoorway(1, "enter", "SD^f", 50),
		evDoorway(1, "cross", "SD^f", 60),
		evDoorway(0, "enter", "SD^f", 100),
	)
	if e := c.WaitEdges(); len(e) != 1 || e[0] != (Edge{From: 0, To: 1, Why: "doorway:SD^f"}) {
		t.Fatalf("sync edges = %+v", e)
	}
	// The neighbour exits the doorway: no wait.
	feed(c, evDoorway(1, "exit", "SD^f", 120))
	if e := c.WaitEdges(); len(e) != 0 {
		t.Fatalf("sync edges after exit = %+v", e)
	}

	// Asynchronous doorway, neighbour behind since before the entry
	// began: the entrant never observed it outside, so it waits.
	c = New()
	c.SeedLink(0, 1)
	feed(c,
		evDoorway(1, "enter", "AD^f", 50),
		evDoorway(1, "cross", "AD^f", 60),
		evDoorway(0, "enter", "AD^f", 100),
	)
	if e := c.WaitEdges(); len(e) != 1 || e[0] != (Edge{From: 0, To: 1, Why: "doorway:AD^f"}) {
		t.Fatalf("async edges = %+v", e)
	}

	// Asynchronous doorway, neighbour crossed after the entry began: the
	// entrant observed it outside at entry (the doorway seeds its
	// seen-set), so the behind position does not block.
	c = New()
	c.SeedLink(0, 1)
	feed(c,
		evDoorway(0, "enter", "AD^f", 50),
		evDoorway(1, "enter", "AD^f", 55),
		evDoorway(1, "cross", "AD^f", 60),
	)
	if e := c.WaitEdges(); len(e) != 0 {
		t.Fatalf("async late-behind edges = %+v", e)
	}

	// A node that crashed behind a doorway blocks entrants forever (its
	// position is frozen), and emits no waits of its own.
	c = New()
	c.SeedLink(0, 1)
	feed(c,
		evDoorway(1, "enter", "SD^f", 50),
		evDoorway(1, "cross", "SD^f", 60),
		evSend(1, 0, "req", 1, 65), // would be a fork edge if 1 were alive
		evCrash(1, 70),
		evDoorway(0, "enter", "SD^f", 100),
	)
	e := c.WaitEdges()
	if len(e) != 1 || e[0] != (Edge{From: 0, To: 1, Why: "doorway:SD^f"}) {
		t.Fatalf("frozen-crash edges = %+v", e)
	}
}

// TestCollectorCrashImpacts builds a fork-wait chain 3→2→1→0 on a line,
// crashes node 0 and checks the attribution: wait-chain hops, graph
// distances and the cutoff rule.
func TestCollectorCrashImpacts(t *testing.T) {
	c := New()
	for i := core.NodeID(0); i < 3; i++ {
		c.SeedLink(i, i+1)
	}
	feed(c,
		evState(1, "thinking", "hungry", 10),
		evState(2, "thinking", "hungry", 10),
		evState(3, "thinking", "hungry", 10),
		evSend(1, 0, "req", 1, 20),
		evSend(2, 1, "req", 1, 20),
		evSend(3, 2, "req", 1, 20),
		evCrash(0, 100),
	)
	c.Finalize(1000)
	imps := c.Impacts()
	if len(imps) != 1 {
		t.Fatalf("impacts = %+v", imps)
	}
	imp := imps[0]
	if imp.Crashed != 0 || imp.At != 100 {
		t.Fatalf("impact = %+v", imp)
	}
	if imp.MaxHop != 3 || imp.MaxDist != 3 {
		t.Fatalf("maxima = hop %d dist %d, want 3/3", imp.MaxHop, imp.MaxDist)
	}
	if len(imp.Blocked) != 3 {
		t.Fatalf("blocked = %+v", imp.Blocked)
	}
	for i, b := range imp.Blocked {
		want := BlockedNode{Node: core.NodeID(i + 1), Hop: i + 1, Dist: i + 1}
		if b != want {
			t.Fatalf("blocked[%d] = %+v, want %+v", i, b, want)
		}
	}
}

// TestCollectorCrashImpactCutoff: an attempt that began after the
// measurement cutoff (a third of the post-crash horizon) is not
// attributed to the crash, even inside the wait-for closure.
func TestCollectorCrashImpactCutoff(t *testing.T) {
	c := New()
	c.SeedLink(0, 1)
	feed(c,
		evCrash(0, 100),
		// Cutoff for Finalize(1000) is 100 + 900/3 = 400.
		evState(1, "thinking", "hungry", 900),
		evSend(1, 0, "req", 1, 910),
	)
	c.Finalize(1000)
	imps := c.Impacts()
	if len(imps) != 1 || len(imps[0].Blocked) != 0 || imps[0].MaxDist != 0 {
		t.Fatalf("impacts = %+v, want one empty attribution", imps)
	}
}

// TestOpenSpansSnapshot: OpenSpans reports in-progress attempts with
// their current phase closed at the latest event time, without mutating
// the collector.
func TestOpenSpansSnapshot(t *testing.T) {
	c := New()
	feed(c,
		evState(5, "thinking", "hungry", 100),
		evDeliver(5, 6, "status", 2, 150), // advances c.now
	)
	open := c.OpenSpans()
	if len(open) != 1 {
		t.Fatalf("open = %+v", open)
	}
	s := open[0]
	if s.Node != 5 || s.Outcome != OutcomeOpen || s.End != 150 {
		t.Fatalf("open span = %+v", s)
	}
	if len(s.Phases) != 1 || s.Phases[0].Name != PhaseCollect || s.Phases[0].End != 150 {
		t.Fatalf("open phases = %+v", s.Phases)
	}
	// The snapshot did not close anything: the attempt still finishes.
	feed(c,
		evState(5, "hungry", "eating", 200),
		evState(5, "eating", "thinking", 220),
	)
	c.Finalize(300)
	if spans := c.Spans(); len(spans) != 1 || spans[0].Outcome != OutcomeAte {
		t.Fatalf("spans after snapshot = %+v", spans)
	}
}

// TestSummarizeQualifiesPhaseNames: the report section qualifies phase
// names with their detail and aggregates counts and durations.
func TestSummarizeQualifiesPhaseNames(t *testing.T) {
	spans := []Span{
		{Node: 0, Attempt: 1, Start: 0, End: 100, Outcome: OutcomeAte, Phases: []Phase{
			{Name: PhaseDoorway, Detail: "AD^r", Start: 0, End: 40},
			{Name: PhaseEat, Start: 40, End: 100},
		}},
		{Node: 1, Attempt: 1, Start: 0, End: 80, Outcome: OutcomeAte, Demotions: 2, Phases: []Phase{
			{Name: PhaseDoorway, Detail: "AD^r", Start: 0, End: 10},
			{Name: PhaseEat, Start: 10, End: 80},
		}},
	}
	sum := Summarize(spans, nil)
	if sum.Attempts != 2 || sum.Ate != 2 || sum.Demotions != 2 {
		t.Fatalf("summary = %+v", sum)
	}
	if len(sum.Phases) != 2 {
		t.Fatalf("phases = %+v", sum.Phases)
	}
	dw := sum.Phases[0]
	if dw.Name != "doorway:AD^r" || dw.Count != 2 || dw.TotalUS != 50 || dw.MaxUS != 40 {
		t.Fatalf("doorway stat = %+v", dw)
	}
	if eat := sum.Phases[1]; eat.Name != "eat" || eat.TotalUS != 130 {
		t.Fatalf("eat stat = %+v", eat)
	}
}

// TestWriteJSONLAndFeedIdempotence: the JSONL output is one object per
// line and Finalize is idempotent.
func TestWriteJSONLAndFeedIdempotence(t *testing.T) {
	c := New()
	feed(c,
		evState(0, "thinking", "hungry", 10),
		evState(0, "hungry", "eating", 20),
		evState(0, "eating", "thinking", 30),
	)
	c.Finalize(100)
	c.Finalize(200) // idempotent: the first end stands
	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("lines = %d:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], `"outcome":"ate"`) {
		t.Fatalf("line = %s", lines[0])
	}
}
