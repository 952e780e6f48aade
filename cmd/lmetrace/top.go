package main

// The lmetop view: a live, refreshing rendering of an lme/progress/v1
// heartbeat stream carrying lme/telemetry/v1 sections — a tile-grid heat
// map of the sharded engine (events/s per tile since the previous
// heartbeat) plus the window/barrier aggregates and, when present, the
// transport's wire counters. Point it at a -progress-out file while the
// run executes:
//
//	lmesim -alg alg1-greedy -topo grid -n 10000 -tiles auto \
//	    -telemetry -progress-out progress.jsonl -dur 60s &
//	lmetrace -top progress.jsonl
//
// On a terminal every heartbeat repaints the screen; on a pipe each
// heartbeat prints its one-liner and the full frame is rendered once,
// for the final record. The view follows the file until the final record
// arrives (or EOF on a non-following input).

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"lme/internal/metrics"
	"lme/internal/progress"
)

// heatShades maps a tile's load fraction to a glyph, blank → densest.
const heatShades = " .:-=+*#%@"

// topRun drives the lmetop view over a heartbeat stream. follow polls in
// for appended lines until a final record shows up — the live case; when
// false the stream is drained once (stdin, or a completed file).
func topRun(in io.Reader, out io.Writer, follow bool, every time.Duration, tty bool) error {
	reader := bufio.NewReader(in)
	var (
		partial []byte
		prev    *progress.Record
		last    *progress.Record
		lastEng *progress.Record // most recent record carrying an engine section
		n       int
		skipped int
	)
	render := func(rec progress.Record) {
		n++
		if rec.Engine != nil {
			if lastEng != nil {
				cp := *lastEng
				prev = &cp
			}
			lastEng = &rec
		}
		last = &rec
		if tty {
			fmt.Fprint(out, "\x1b[H\x1b[2J")
			fmt.Fprint(out, renderTopFrame(rec, prev))
		} else {
			fmt.Fprintln(out, rec.HumanLine())
		}
	}
	for {
		chunk, err := reader.ReadBytes('\n')
		partial = append(partial, chunk...)
		if err == io.EOF {
			if follow && (last == nil || !last.Final) {
				time.Sleep(every)
				continue
			}
		} else if err != nil {
			return err
		}
		atEOF := err == io.EOF
		if !atEOF {
			line := bytes.TrimSpace(partial)
			partial = partial[:0]
			if len(line) > 0 {
				var rec progress.Record
				if jsonErr := json.Unmarshal(line, &rec); jsonErr != nil || rec.Schema != progress.Schema {
					// A mixed stream (trace events, other schemas) is
					// fine — count what we passed over.
					skipped++
				} else {
					render(rec)
					if rec.Final && follow {
						break
					}
				}
			}
			continue
		}
		break
	}
	if n == 0 {
		return fmt.Errorf("no progress records (skipped %d non-progress lines)", skipped)
	}
	if !tty {
		// Pipe mode: one full frame, for the last heartbeat seen.
		fmt.Fprintln(out)
		fmt.Fprint(out, renderTopFrame(*last, prev))
	}
	if skipped > 0 {
		fmt.Fprintf(out, "skipped %d non-progress lines\n", skipped)
	}
	return nil
}

// renderTopFrame renders one heartbeat as the full lmetop frame: header
// line, engine aggregates, the tile heat grid, and the transport wire
// counters. prev, when non-nil, supplies the previous engine sample so
// the grid shows rates over the interval instead of cumulative counts.
func renderTopFrame(rec progress.Record, prev *progress.Record) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "lmetop")
	if rec.Label != "" {
		fmt.Fprintf(&b, " %s", rec.Label)
	}
	fmt.Fprintf(&b, "  wall=%.1fs", rec.WallMS/1000)
	if rec.SimUS > 0 {
		fmt.Fprintf(&b, " sim=%.2fs", float64(rec.SimUS)/1e6)
	}
	fmt.Fprintf(&b, "  %s ev/s  heap=%s", topCount(rec.EventsPerSec), topBytes(rec.HeapBytes))
	if rec.Final {
		fmt.Fprint(&b, "  [final]")
	}
	fmt.Fprintln(&b)

	if e := rec.Engine; e != nil {
		fmt.Fprintf(&b, "engine  %d×%d tiles  %d workers  windows=%d", e.Tiles, e.Tiles, e.Workers, e.Windows)
		if e.Imbalance > 0 {
			fmt.Fprintf(&b, "  imbalance=%.2f", e.Imbalance)
		}
		if e.StealAttempts > 0 {
			fmt.Fprintf(&b, "  steals=%d/%d", e.StealHits, e.StealAttempts)
		}
		if e.DirectWindows > 0 && e.Events > 0 {
			// Windows the coordinator ran in place, and their share of
			// all events.
			fmt.Fprintf(&b, "  direct=%d (%.0f%% ev)", e.DirectWindows, 100*float64(e.DirectEvents)/float64(e.Events))
		}
		if e.CrossTileMsgs > 0 {
			fmt.Fprintf(&b, "  cross_tile=%d", e.CrossTileMsgs)
		}
		fmt.Fprintln(&b)
		if e.WindowSpanUS.Count > 0 || e.BarrierStallNS.Count > 0 {
			fmt.Fprintf(&b, "        window span p50=%sµs", sketchQ(e.WindowSpanUS, 0.50))
			if e.BarrierStallNS.Count > 0 {
				fmt.Fprintf(&b, "  barrier stall p50=%sns p99=%sns",
					sketchQ(e.BarrierStallNS, 0.50), sketchQ(e.BarrierStallNS, 0.99))
			}
			fmt.Fprintln(&b)
		}
		b.WriteString(renderHeatGrid(rec, prev))
	}

	if ts := rec.Transport; ts != nil {
		fmt.Fprintf(&b, "wire    %s  links=%d  frames=%d/%d  retx=%d dup=%d reorder_hw=%d overflow=%d\n",
			ts.Kind, ts.Links, ts.FramesSent, ts.FramesDelivered,
			ts.Retransmits, ts.DupDrops, ts.ReorderDepthHW, ts.ReorderOverflow)
		if ts.DatagramsSent > 0 {
			fmt.Fprintf(&b, "        dgrams=%d (acks %d standalone, %d piggybacked)  frames/dgram=%.1f  bytes=%d\n",
				ts.DatagramsSent, ts.AckDatagrams, ts.AcksPiggybacked,
				ts.FramesPerDatagram, ts.WireBytes)
		}
		if ts.AckRTTUS.Count > 0 {
			fmt.Fprintf(&b, "        ack rtt p50=%sµs p99=%sµs\n",
				sketchQ(ts.AckRTTUS, 0.50), sketchQ(ts.AckRTTUS, 0.99))
		}
	}
	return b.String()
}

// renderHeatGrid draws the g×g tile grid, one glyph per tile shaded by
// its share of the hottest tile's events over the interval.
func renderHeatGrid(rec progress.Record, prev *progress.Record) string {
	e := rec.Engine
	g := e.Tiles
	if g < 1 || len(e.PerTile) != g*g {
		return ""
	}
	// Per-tile activity: delta vs the previous engine sample when its
	// shape matches, cumulative otherwise.
	load := make([]float64, g*g)
	cumulative := true
	if prev != nil && prev.Engine != nil && len(prev.Engine.PerTile) == g*g {
		cumulative = false
		for i := range load {
			load[i] = float64(e.PerTile[i].Events) - float64(prev.Engine.PerTile[i].Events)
		}
	} else {
		for i := range load {
			load[i] = float64(e.PerTile[i].Events)
		}
	}
	maxLoad := 0.0
	for _, v := range load {
		if v > maxLoad {
			maxLoad = v
		}
	}
	var b bytes.Buffer
	unit := "events this interval"
	if cumulative {
		unit = "events total"
	}
	fmt.Fprintf(&b, "heat    %s per tile, max=%.0f  (%q → %q)\n", unit, maxLoad, heatShades[0], heatShades[len(heatShades)-1])
	shades := []rune(heatShades)
	for y := 0; y < g; y++ {
		b.WriteString("        ")
		for x := 0; x < g; x++ {
			v := load[y*g+x]
			idx := 0
			if maxLoad > 0 && v > 0 {
				idx = 1 + int(v/maxLoad*float64(len(shades)-2)+0.5)
				if idx >= len(shades) {
					idx = len(shades) - 1
				}
			}
			b.WriteRune(shades[idx])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// sketchQ renders a sketch snapshot's quantile as a whole number.
func sketchQ(snap metrics.SketchSnapshot, q float64) string {
	if snap.Count == 0 {
		return "0"
	}
	return fmt.Sprintf("%.0f", metrics.FromSnapshot(snap).QuantileFloat(q))
}

// topCount renders a rate with an SI suffix (1.25M, 430k, 812).
func topCount(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.0fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// topBytes renders a byte count with a binary suffix.
func topBytes(v uint64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(v)/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(v)/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(v)/(1<<10))
	default:
		return fmt.Sprintf("%dB", v)
	}
}

// isTerminal reports whether f is a character device (a live terminal),
// which selects the repaint-in-place rendering.
func isTerminal(f *os.File) bool {
	st, err := f.Stat()
	if err != nil {
		return false
	}
	return st.Mode()&os.ModeCharDevice != 0
}
