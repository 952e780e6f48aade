package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"lme/internal/metrics"
	"lme/internal/progress"
	"lme/internal/telemetry"
)

// topRecord builds a heartbeat carrying an engine section for a g×g grid
// with the given per-tile cumulative event counts.
func topRecord(g int, perTile []uint64, final bool) progress.Record {
	empty := metrics.NewSketch().Snapshot()
	e := &telemetry.EngineStats{
		Schema: telemetry.Schema, Tiles: g, Workers: 2,
		Windows: 12, StealAttempts: 40, StealHits: 30, CrossTileMsgs: 99,
		DirectWindows: 9, DirectEvents: 5,
		Imbalance:    1.50,
		WindowSpanUS: empty, BarrierStallNS: empty,
	}
	var total uint64
	for i, ev := range perTile {
		e.PerTile = append(e.PerTile, telemetry.TileStats{Tile: int32(i), Events: ev})
		total += ev
	}
	e.Events = total
	return progress.Record{
		Schema: progress.Schema, Label: "topo", WallMS: 1500, SimUS: 2_000_000,
		Events: total, EventsPerSec: 250_000, HeapBytes: 64 << 20,
		Engine: e, Final: final,
	}
}

func TestRenderTopFrameHeatGrid(t *testing.T) {
	rec := topRecord(2, []uint64{0, 10, 5, 10}, true)
	frame := renderTopFrame(rec, nil)

	for _, want := range []string{
		"lmetop topo", "[final]",
		"engine  2×2 tiles  2 workers  windows=12",
		"imbalance=1.50", "steals=30/40", "direct=9 (20% ev)", "cross_tile=99",
		"events total per tile, max=10",
	} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame missing %q:\n%s", want, frame)
		}
	}
	// Row-major grid: tile 0 idle (blank), tiles 1 and 3 hottest (@),
	// tile 2 mid-shade.
	lines := strings.Split(frame, "\n")
	var grid []string
	for i, ln := range lines {
		if strings.Contains(ln, "heat") {
			grid = lines[i+1 : i+3]
			break
		}
	}
	if len(grid) != 2 {
		t.Fatalf("no 2-row heat grid in frame:\n%s", frame)
	}
	row0, row1 := strings.TrimPrefix(grid[0], "        "), strings.TrimPrefix(grid[1], "        ")
	if row0 != " @" {
		t.Errorf("row 0 = %q, want %q", row0, " @")
	}
	if !strings.HasSuffix(row1, "@") || strings.HasPrefix(row1, " ") || strings.HasPrefix(row1, "@") {
		t.Errorf("row 1 = %q, want mid-shade then @", row1)
	}
}

func TestRenderTopFrameDeltas(t *testing.T) {
	prev := topRecord(2, []uint64{0, 10, 5, 10}, false)
	rec := topRecord(2, []uint64{0, 10, 25, 10}, true)
	frame := renderTopFrame(rec, &prev)
	// Only tile 2 advanced (by 20): interval mode, max=20, tile 2 is the
	// sole hot cell.
	if !strings.Contains(frame, "events this interval per tile, max=20") {
		t.Errorf("frame not in interval mode:\n%s", frame)
	}
	lines := strings.Split(frame, "\n")
	for i, ln := range lines {
		if strings.Contains(ln, "heat") {
			row0 := strings.TrimPrefix(lines[i+1], "        ")
			row1 := strings.TrimPrefix(lines[i+2], "        ")
			if row0 != "  " {
				t.Errorf("row 0 = %q, want all idle", row0)
			}
			if row1 != "@ " {
				t.Errorf("row 1 = %q, want \"@ \"", row1)
			}
			return
		}
	}
	t.Fatalf("no heat grid in frame:\n%s", frame)
}

func TestRenderTopFrameTransport(t *testing.T) {
	rtt := metrics.NewSketch()
	rtt.ObserveFloat(480)
	rtt.ObserveFloat(520)
	rec := progress.Record{
		Schema: progress.Schema, WallMS: 100,
		Transport: &telemetry.TransportStats{
			Schema: telemetry.Schema, Kind: "udp", Links: 6,
			FramesSent: 1000, FramesDelivered: 990, Retransmits: 12,
			DupDrops: 3, ReorderDepthHW: 7, ReorderOverflow: 2,
			AckRTTUS: rtt.Snapshot(),
		},
	}
	frame := renderTopFrame(rec, nil)
	if !strings.Contains(frame, "wire    udp  links=6  frames=1000/990  retx=12 dup=3 reorder_hw=7 overflow=2") {
		t.Errorf("frame missing wire counters:\n%s", frame)
	}
	if !strings.Contains(frame, "ack rtt p50=") {
		t.Errorf("frame missing rtt line:\n%s", frame)
	}
	// No datagram telemetry (a pre-coalescing record): no dgrams line.
	if strings.Contains(frame, "dgrams=") {
		t.Errorf("dgrams line rendered without datagram counters:\n%s", frame)
	}

	// Datagram counters present: the coalescing line joins the block.
	rec.Transport.DatagramsSent = 180
	rec.Transport.AckDatagrams = 30
	rec.Transport.AcksPiggybacked = 140
	rec.Transport.FramesPerDatagram = 6.7
	rec.Transport.WireBytes = 52_000
	frame = renderTopFrame(rec, nil)
	if !strings.Contains(frame, "dgrams=180 (acks 30 standalone, 140 piggybacked)  frames/dgram=6.7  bytes=52000") {
		t.Errorf("frame missing datagram coalescing line:\n%s", frame)
	}
}

// TestTopRunMixedStream feeds topRun a pipe-mode stream that interleaves
// trace-event lines with heartbeats: non-progress lines are counted and
// skipped, every heartbeat prints its one-liner, and the final frame is
// rendered once from the last record.
func TestTopRunMixedStream(t *testing.T) {
	var stream bytes.Buffer
	enc := json.NewEncoder(&stream)
	stream.WriteString(`{"schema":"lme/trace/v1","kind":"send","node":3}` + "\n")
	if err := enc.Encode(topRecord(2, []uint64{1, 2, 3, 4}, false)); err != nil {
		t.Fatal(err)
	}
	stream.WriteString("not json at all\n")
	if err := enc.Encode(topRecord(2, []uint64{2, 4, 6, 8}, true)); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := topRun(&stream, &out, false, time.Millisecond, false); err != nil {
		t.Fatalf("topRun: %v", err)
	}
	got := out.String()
	for _, want := range []string{
		"skipped 2 non-progress lines",
		"lmetop topo",
		"heat",
		"engine  2×2 tiles",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	// Two heartbeats → two one-liners before the frame.
	if n := strings.Count(got, "progress topo"); n != 2 {
		t.Errorf("want 2 human one-liners, got %d:\n%s", n, got)
	}
}

func TestTopRunEmptyStream(t *testing.T) {
	var out bytes.Buffer
	err := topRun(strings.NewReader("{\"schema\":\"lme/trace/v1\"}\n"), &out, false, time.Millisecond, false)
	if err == nil || !strings.Contains(err.Error(), "no progress records") {
		t.Fatalf("want no-records error, got %v", err)
	}
}

// TestProgressViewMixedStream pins the satellite fix: the -progress
// renderer skips and counts non-progress lines in a mixed stream instead
// of hard-erroring, and renders the telemetry sections of the final
// record when present.
func TestProgressViewMixedStream(t *testing.T) {
	var stream bytes.Buffer
	enc := json.NewEncoder(&stream)
	stream.WriteString(`{"schema":"lme/trace/v1","kind":"deliver","node":1}` + "\n")
	if err := enc.Encode(topRecord(2, []uint64{1, 2, 3, 4}, false)); err != nil {
		t.Fatal(err)
	}
	stream.WriteString(`{"schema":"lme/span/v1"}` + "\n")
	rec := topRecord(2, []uint64{5, 6, 7, 8}, true)
	rtt := metrics.NewSketch()
	rtt.ObserveFloat(500)
	rec.Transport = &telemetry.TransportStats{
		Schema: telemetry.Schema, Kind: "udp", Links: 4,
		FramesSent: 50, FramesDelivered: 49, ReorderOverflow: 1,
		AckRTTUS: rtt.Snapshot(),
	}
	if err := enc.Encode(rec); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := progressView(&stream, &out); err != nil {
		t.Fatalf("progressView: %v", err)
	}
	got := out.String()
	for _, want := range []string{
		"records 2",
		"skipped 2 non-progress lines",
		"engine: 2×2 tiles, 2 workers, 12 windows",
		"steals 30/40",
		"wire: udp, 4 links, frames 50/49",
		"overflow 1",
		"ack rtt p50=",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestProgressViewOldRecords pins backwards compatibility: a stream of
// plain lme/progress/v1 records with no telemetry sections renders with
// no engine/wire lines and no skip note.
func TestProgressViewOldRecords(t *testing.T) {
	var stream bytes.Buffer
	enc := json.NewEncoder(&stream)
	for i, final := range []bool{false, true} {
		rec := progress.Record{
			Schema: progress.Schema, WallMS: float64(i+1) * 1000,
			Events: uint64(i+1) * 100, Final: final,
		}
		if err := enc.Encode(rec); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if err := progressView(&stream, &out); err != nil {
		t.Fatalf("progressView: %v", err)
	}
	got := out.String()
	if !strings.Contains(got, "records 2") {
		t.Errorf("missing roll-up:\n%s", got)
	}
	for _, banned := range []string{"engine:", "wire:", "skipped"} {
		if strings.Contains(got, banned) {
			t.Errorf("unexpected %q in old-record output:\n%s", banned, got)
		}
	}
}

// TestTopRunFollow exercises the follow path: records appended to a file
// after the first EOF are picked up, and the view exits on its own when
// the final record lands.
func TestTopRunFollow(t *testing.T) {
	path := t.TempDir() + "/progress.jsonl"
	writeLine := func(rec progress.Record) {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		w, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	writeLine(topRecord(2, []uint64{1, 1, 1, 1}, false))

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	done := make(chan error, 1)
	var out bytes.Buffer
	go func() { done <- topRun(f, &out, true, 5*time.Millisecond, false) }()

	time.Sleep(30 * time.Millisecond)
	writeLine(topRecord(2, []uint64{9, 1, 1, 1}, true))

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("topRun: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("topRun did not exit after the final record")
	}
	if n := strings.Count(out.String(), "progress topo"); n != 2 {
		t.Errorf("want 2 one-liners across the follow, got %d:\n%s", n, out.String())
	}
}
