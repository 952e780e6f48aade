// Command lmetrace summarises and filters the JSONL event traces written
// by lmesim -trace-out: the offline half of the observability layer.
//
// With no filter flags it prints a summary of the trace — time span,
// per-kind counts, per-node event counts, and a per-message-type
// send/deliver/drop table. Any filter flag implies -print (the events
// themselves are rendered); pass -summary to aggregate the matching
// subset instead.
//
// The span views fold the whole trace through the span layer
// (internal/span) instead of filtering raw events:
//
//	-spans          one line per CS attempt (phases, outcome, causality)
//	-phases         the aggregate phase table and crash attribution
//	-waitfor 1.5s   the wait-for graph as of a virtual time
//
// Examples:
//
//	lmesim -alg alg2 -n 24 -dur 5s -trace-out run.jsonl
//	lmetrace run.jsonl                          # summary
//	lmetrace -node 7 run.jsonl                  # everything node 7 did
//	lmetrace -node 3,7 -kind send,deliver run.jsonl
//	lmetrace -kind send -msg fork -summary run.jsonl
//	lmetrace -from 1s -to 1.5s run.jsonl        # a time window, rendered
//	lmetrace -spans run.jsonl                   # per-attempt CS spans
//	lmetrace -phases run.jsonl                  # phase aggregates
//	lmetrace -waitfor 1.5s run.jsonl            # who blocks whom at 1.5s
//	lmetrace -progress progress.jsonl           # render a -progress-out stream
//	lmetrace -top progress.jsonl                # live tile heat view (lmetop)
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"lme/internal/core"
	"lme/internal/progress"
	"lme/internal/sim"
	"lme/internal/span"
	"lme/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lmetrace:", err)
		os.Exit(1)
	}
}

// parseNodes parses a comma-separated node-ID list ("" = no filter).
func parseNodes(s string) (map[core.NodeID]bool, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[core.NodeID]bool)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, err := strconv.Atoi(part)
		if err != nil || id < 0 {
			return nil, fmt.Errorf("bad node id %q", part)
		}
		out[core.NodeID(id)] = true
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

// parseKinds parses a comma-separated event-kind list ("" = no filter).
func parseKinds(s string) (map[trace.Kind]bool, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[trace.Kind]bool)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var k trace.Kind
		if err := k.UnmarshalText([]byte(part)); err != nil {
			return nil, err
		}
		out[k] = true
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

func run() error {
	var (
		nodeList = flag.String("node", "", "only events involving these nodes (comma-separated IDs, as actor or peer)")
		kindList = flag.String("kind", "", "only events of these kinds (comma-separated: send|deliver|drop|state|link-up|link-down|move-start|move-stop|crash|doorway|recolor|note)")
		msg      = flag.String("msg", "", "only message events of this normalised type (e.g. fork, req, switch)")
		from     = flag.Duration("from", 0, "only events at or after this virtual time")
		to       = flag.Duration("to", 0, "only events before this virtual time (0 = end of trace)")
		print    = flag.Bool("print", false, "render matching events (implied by any filter flag)")
		summ     = flag.Bool("summary", false, "summarise the matching events even when a filter is set")
		spans    = flag.Bool("spans", false, "fold the trace into CS-attempt spans and print one line per attempt")
		phases   = flag.Bool("phases", false, "fold the trace into spans and print the aggregate phase table")
		waitfor  = flag.Duration("waitfor", 0, "print the wait-for graph (who is blocked on whom) as of this virtual time")
		progress = flag.Bool("progress", false, "render an lme/progress/v1 heartbeat stream (lmesim/lmebench -progress-out) instead of a trace")
		top      = flag.Bool("top", false, "lmetop: live tile-grid heat view of a heartbeat stream with telemetry sections; follows a growing file until the final record")
		topEvery = flag.Duration("top-every", 200*time.Millisecond, "poll interval when -top follows a growing file")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: lmetrace [flags] [trace.jsonl]\n\n"+
			"Reads stdin when no file is given. Filter flags imply -print; use\n"+
			"-summary to aggregate the filtered subset instead. The span views\n"+
			"(-spans, -phases, -waitfor) consume the whole trace and ignore the\n"+
			"filter flags.\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	var in io.Reader = os.Stdin
	fromFile := false
	if flag.NArg() > 1 {
		return fmt.Errorf("expected at most one trace file, got %d", flag.NArg())
	}
	if flag.NArg() == 1 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
		fromFile = true
	}

	if *top {
		// Follow only when reading a file: re-reading after EOF picks up
		// appended heartbeats; a pipe is drained once.
		return topRun(in, os.Stdout, fromFile, *topEvery, isTerminal(os.Stdout))
	}
	if *progress {
		return progressView(in, os.Stdout)
	}
	if *spans || *phases || *waitfor > 0 {
		return spanView(in, *spans, *phases, *waitfor)
	}

	nodes, err := parseNodes(*nodeList)
	if err != nil {
		return err
	}
	kinds, err := parseKinds(*kindList)
	if err != nil {
		return err
	}
	// Any filter flag implies the caller wants the events themselves,
	// unless -summary asks for aggregation of the subset.
	filtered := kinds != nil || nodes != nil || *msg != "" || *from > 0 || *to > 0
	listing := (*print || filtered) && !*summ

	match := func(e trace.Event) bool {
		if kinds != nil && !kinds[e.Kind] {
			return false
		}
		if nodes != nil && !nodes[e.Node] && !nodes[e.Peer] {
			return false
		}
		if *msg != "" && e.Msg != *msg {
			return false
		}
		if e.At < sim.FromDuration(*from) {
			return false
		}
		if *to > 0 && e.At >= sim.FromDuration(*to) {
			return false
		}
		return true
	}

	sum := newSummary()
	dec := json.NewDecoder(bufio.NewReader(in))
	line := 0
	for {
		var e trace.Event
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("event %d: %w", line+1, err)
		}
		line++
		if !match(e) {
			continue
		}
		if listing {
			fmt.Printf("%12v  %s\n", sim.ToDuration(e.At), e.String())
			continue
		}
		sum.add(e)
	}
	if !listing {
		sum.print(os.Stdout)
	}
	return nil
}

// spanView folds the full trace through the span collector and renders
// the requested derived view.
func spanView(in io.Reader, listSpans, listPhases bool, waitAt time.Duration) error {
	col := span.New()
	cut := sim.FromDuration(waitAt)
	dec := json.NewDecoder(bufio.NewReader(in))
	line := 0
	for {
		var e trace.Event
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("event %d: %w", line+1, err)
		}
		line++
		if waitAt > 0 && e.At > cut {
			break
		}
		col.Feed(&e)
	}

	if waitAt > 0 {
		edges := col.WaitEdges()
		if len(edges) == 0 {
			fmt.Printf("no wait-for edges at %v\n", waitAt)
			return nil
		}
		fmt.Printf("wait-for graph at %v (blocked -> blocking):\n", waitAt)
		for _, e := range edges {
			fmt.Printf("  %3d -> %-3d  %s\n", e.From, e.To, e.Why)
		}
		return nil
	}

	col.Finalize(col.Now())
	if listSpans {
		for _, s := range col.Spans() {
			printSpan(s)
		}
	}
	if listPhases {
		printPhases(col.Summary())
	}
	return nil
}

// printSpan renders one attempt on one line: identity, interval,
// outcome, then the phase walk with causal closers.
func printSpan(s span.Span) {
	var b strings.Builder
	fmt.Fprintf(&b, "node %3d #%-3d %10v +%-10v %-7s", s.Node, s.Attempt,
		sim.ToDuration(s.Start), sim.ToDuration(s.Dur()), s.Outcome)
	if s.Demotions > 0 {
		fmt.Fprintf(&b, " demotions=%d", s.Demotions)
	}
	if s.Recolors > 0 {
		fmt.Fprintf(&b, " recolors=%d", s.Recolors)
	}
	for i, p := range s.Phases {
		if i == 0 {
			b.WriteString("  ")
		} else {
			b.WriteString(" → ")
		}
		name := p.Name
		if p.Detail != "" {
			name += ":" + p.Detail
		}
		fmt.Fprintf(&b, "%s %v", name, sim.ToDuration(p.Dur()))
		if p.UnblockedBy != nil {
			fmt.Fprintf(&b, " (by %s %d/%d)", p.UnblockedBy.Msg, p.UnblockedBy.From, p.UnblockedBy.Seq)
		}
	}
	fmt.Println(b.String())
}

// printPhases renders the aggregate table of a span summary.
func printPhases(sum span.Summary) {
	fmt.Printf("attempts %d (ate %d, crashed %d, open %d), demotions %d\n",
		sum.Attempts, sum.Ate, sum.Crashed, sum.Open, sum.Demotions)
	if len(sum.Phases) > 0 {
		fmt.Printf("\n%-16s %8s %12s %12s %12s\n", "phase", "count", "total", "mean", "max")
		for _, ps := range sum.Phases {
			mean := time.Duration(0)
			if ps.Count > 0 {
				mean = sim.ToDuration(ps.TotalUS / sim.Time(ps.Count))
			}
			fmt.Printf("%-16s %8d %12v %12v %12v\n", ps.Name, ps.Count,
				sim.ToDuration(ps.TotalUS), mean, sim.ToDuration(ps.MaxUS))
		}
	}
	for _, cr := range sum.Crashes {
		fmt.Printf("\ncrash node %d at %v: max wait-chain hop %d, max graph distance %d, %d blocked\n",
			cr.Crashed, sim.ToDuration(cr.At), cr.MaxHop, cr.MaxDist, len(cr.Blocked))
		for _, b := range cr.Blocked {
			fmt.Printf("  node %3d hop=%d dist=%d\n", b.Node, b.Hop, b.Dist)
		}
	}
}

// summary accumulates the default (no-filter) report.
type summary struct {
	total       int
	first, last sim.Time
	byKind      map[trace.Kind]int
	byNode      map[core.NodeID]int
	byMsg       map[string]*msgCounts
}

type msgCounts struct{ sent, delivered, dropped int }

func newSummary() *summary {
	return &summary{
		first:  -1,
		byKind: make(map[trace.Kind]int),
		byNode: make(map[core.NodeID]int),
		byMsg:  make(map[string]*msgCounts),
	}
}

func (s *summary) add(e trace.Event) {
	s.total++
	if s.first < 0 {
		s.first = e.At
	}
	if e.At > s.last {
		s.last = e.At
	}
	s.byKind[e.Kind]++
	if e.Node >= 0 {
		s.byNode[e.Node]++
	}
	if e.Msg != "" {
		mc := s.byMsg[e.Msg]
		if mc == nil {
			mc = &msgCounts{}
			s.byMsg[e.Msg] = mc
		}
		switch e.Kind {
		case trace.KindSend:
			mc.sent++
		case trace.KindDeliver:
			mc.delivered++
		case trace.KindDrop:
			mc.dropped++
		}
	}
}

func (s *summary) print(w io.Writer) {
	if s.total == 0 {
		fmt.Fprintln(w, "empty trace")
		return
	}
	span := time.Duration(0)
	if s.last > s.first {
		span = sim.ToDuration(s.last - s.first)
	}
	fmt.Fprintf(w, "events   %d\n", s.total)
	fmt.Fprintf(w, "span     %v – %v (%v)\n", sim.ToDuration(s.first), sim.ToDuration(s.last), span)

	fmt.Fprintln(w, "\nby kind:")
	for _, k := range trace.Kinds() {
		if n := s.byKind[k]; n > 0 {
			fmt.Fprintf(w, "  %-12s %8d\n", k, n)
		}
	}

	if len(s.byMsg) > 0 {
		fmt.Fprintln(w, "\nby message type:")
		fmt.Fprintf(w, "  %-14s %8s %10s %8s\n", "type", "sent", "delivered", "dropped")
		types := make([]string, 0, len(s.byMsg))
		for t := range s.byMsg {
			types = append(types, t)
		}
		sort.Strings(types)
		for _, t := range types {
			mc := s.byMsg[t]
			fmt.Fprintf(w, "  %-14s %8d %10d %8d\n", t, mc.sent, mc.delivered, mc.dropped)
		}
	}

	if len(s.byNode) > 0 {
		fmt.Fprintln(w, "\nby node:")
		nodes := make([]core.NodeID, 0, len(s.byNode))
		for id := range s.byNode {
			nodes = append(nodes, id)
		}
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
		for _, id := range nodes {
			fmt.Fprintf(w, "  node %3d %8d\n", id, s.byNode[id])
		}
	}
}

// progressView renders an lme/progress/v1 heartbeat stream: each record
// as its human one-liner, then a run roll-up (peak rates, peak heap,
// total trace loss, engine/transport telemetry when the run carried it)
// from the final/last record. Lines of other schemas — a mixed stream
// that interleaves trace events with heartbeats, say — are skipped and
// counted rather than treated as errors, and records written by older
// builds (no engine/transport sections) render exactly as before.
func progressView(in io.Reader, out io.Writer) error {
	sc := bufio.NewScanner(in)
	// Telemetry sections can carry a per-tile array for up to 64×64
	// tiles; give lines far more headroom than the 64KiB default.
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	var (
		last           progress.Record
		n, skipped     int
		peakEv, peakUS float64
		peakHeap       uint64
	)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec progress.Record
		if err := json.Unmarshal(line, &rec); err != nil || rec.Schema != progress.Schema {
			skipped++
			continue
		}
		n++
		last = rec
		peakEv = max(peakEv, rec.EventsPerSec)
		peakUS = max(peakUS, rec.SimUSPerSec)
		peakHeap = max(peakHeap, rec.HeapBytes)
		fmt.Fprintln(out, rec.HumanLine())
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("no progress records (skipped %d non-progress lines)", skipped)
	}
	fmt.Fprintf(out, "\nrecords %d, wall %.1fs, events %d\n", n, last.WallMS/1000, last.Events)
	fmt.Fprintf(out, "peak %.0f ev/s", peakEv)
	if peakUS > 0 {
		fmt.Fprintf(out, " (×%.1f real time)", peakUS/1e6)
	}
	fmt.Fprintf(out, ", peak heap %d bytes\n", peakHeap)
	if last.RingOverwritten > 0 || last.SinkDropped > 0 {
		fmt.Fprintf(out, "trace loss: %d ring-overwritten, %d sink-dropped\n",
			last.RingOverwritten, last.SinkDropped)
	}
	if e := last.Engine; e != nil {
		fmt.Fprintf(out, "engine: %d×%d tiles, %d workers, %d windows", e.Tiles, e.Tiles, e.Workers, e.Windows)
		if e.Imbalance > 0 {
			fmt.Fprintf(out, ", imbalance %.2f", e.Imbalance)
		}
		if e.StealAttempts > 0 {
			fmt.Fprintf(out, ", steals %d/%d", e.StealHits, e.StealAttempts)
		}
		if e.CrossTileMsgs > 0 {
			fmt.Fprintf(out, ", cross-tile msgs %d", e.CrossTileMsgs)
		}
		fmt.Fprintln(out)
		if e.BarrierStallNS.Count > 0 {
			fmt.Fprintf(out, "barrier stall p50=%sns p99=%sns\n",
				sketchQ(e.BarrierStallNS, 0.50), sketchQ(e.BarrierStallNS, 0.99))
		}
	}
	if ts := last.Transport; ts != nil {
		fmt.Fprintf(out, "wire: %s, %d links, frames %d/%d, retransmits %d, dup drops %d, reorder hw %d, overflow %d\n",
			ts.Kind, ts.Links, ts.FramesSent, ts.FramesDelivered,
			ts.Retransmits, ts.DupDrops, ts.ReorderDepthHW, ts.ReorderOverflow)
		if ts.AckRTTUS.Count > 0 {
			fmt.Fprintf(out, "ack rtt p50=%sµs p99=%sµs\n", sketchQ(ts.AckRTTUS, 0.50), sketchQ(ts.AckRTTUS, 0.99))
		}
	}
	if skipped > 0 {
		fmt.Fprintf(out, "skipped %d non-progress lines\n", skipped)
	}
	return nil
}
