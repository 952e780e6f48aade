package manet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"testing"

	"lme/internal/core"
	"lme/internal/graph"
	"lme/internal/sim"
	"lme/internal/trace"
)

// tileCase is one decoded input of FuzzTileEquivalence: a scenario, the
// configuration it runs under, and the tile grid, worker bound and
// window-mode schedule of the run compared with the 1×1 grid.
type tileCase struct {
	sc      scenario
	cfg     Config
	tiles   int
	workers int
	mode    int // 0: the engine's choice; 1+i: windowModes[i]
}

// tileBytes reads a fuzz input front to back; past its end every read
// is zero.
type tileBytes struct{ b []byte }

func (d *tileBytes) byte() byte {
	if len(d.b) == 0 {
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

func (d *tileBytes) u16() uint16 { return uint16(d.byte()) | uint16(d.byte())<<8 }

// decodeTileCase decodes a fuzz input:
//
//	n        1 byte   2 + b%63 nodes
//	layout   1 byte   line, grid or clique (b%3)
//	flags    1 byte   bit 0: pulsers (else chatters); bit 1: NonFIFO
//	seed     2 bytes
//	MinDelay 2 bytes  µs, 0 = the default
//	MaxDelay 2 bytes  µs, 0 = the default (a MinDelay above it is clamped)
//	tick     2 bytes  TickInterval in µs; below 1 ms, the default
//	speed    1 byte   waypoint speed (1 + b%40)/10 units/s
//	horizon  2 bytes  ×20 µs, at least 1 ms
//	tiles    1 byte   grid side 2 + b%7
//	workers  1 byte   b%5, 0 = GOMAXPROCS
//	mode     1 byte   b%4: engine's choice, direct, parallel, flip
//	movers   1 byte count (b%9), then one node byte (b%n) each
//	jumps    1 byte count (b%4), then node byte, x and y (2 bytes each,
//	         /1000), settle and instant (2 bytes each, ×10 µs)
//	crashes  1 byte count (b%4), then node byte and instant (×10 µs)
//
// Layouts are those of the sharded differential at n nodes: a line 0.1
// apart, a grid of 8 columns 0.13 apart, and a clique packed into one
// tile. A script instant is a multiple of 10 µs below 655 ms, the
// horizon one of 20 µs below 1.31 s, and a delay can reach 65.5 ms: four
// times the wheel's horizon.
func decodeTileCase(data []byte) tileCase {
	d := tileBytes{data}
	n := 2 + int(d.byte()%63)
	lay := shardedLayouts(n)[d.byte()%3]
	flags := d.byte()
	cfg := DefaultConfig()
	cfg.Seed = uint64(d.u16())
	cfg.Radius = lay.radius
	if v := sim.Time(d.u16()); v > 0 {
		cfg.MinDelay = v
	}
	if v := sim.Time(d.u16()); v > 0 {
		cfg.MaxDelay = v
	}
	if tick := sim.Time(d.u16()); tick >= 1_000 {
		cfg.TickInterval = tick
	}
	cfg.NonFIFO = flags&2 != 0
	sc := scenario{
		lay:     lay,
		pulse:   flags&1 != 0,
		speed:   float64(1+d.byte()%40) / 10,
		horizon: max(sim.Time(d.u16())*20, 1_000),
		budget:  400_000,
	}
	tc := tileCase{
		tiles:   2 + int(d.byte()%7),
		workers: int(d.byte() % 5),
		mode:    int(d.byte() % 4),
	}
	node := func() core.NodeID { return core.NodeID(int(d.byte()) % n) }
	for range d.byte() % 9 {
		if id := node(); !slices.Contains(sc.movers, id) {
			sc.movers = append(sc.movers, id)
		}
	}
	for range d.byte() % 4 {
		j := scriptJump{id: node()}
		j.to = graph.Point{X: float64(d.u16()) / 1000, Y: float64(d.u16()) / 1000}
		j.settle = sim.Time(d.u16()) * 10
		j.at = sim.Time(d.u16()) * 10
		sc.jumps = append(sc.jumps, j)
	}
	for range d.byte() % 4 {
		sc.crashes = append(sc.crashes, scriptCrash{id: node(), at: sim.Time(d.u16()) * 10})
	}
	tc.sc, tc.cfg = sc, cfg
	return tc
}

// encodeTileCase is decodeTileCase's inverse over the values it can
// produce; the corpus is written with it.
func encodeTileCase(tc tileCase) []byte {
	sc, cfg := tc.sc, tc.cfg
	n := len(sc.lay.points)
	layout := slices.IndexFunc(shardedLayouts(n), func(l shardedLayout) bool { return l.name == sc.lay.name })
	var flags byte
	if sc.pulse {
		flags |= 1
	}
	if cfg.NonFIFO {
		flags |= 2
	}
	b := []byte{byte(n - 2), byte(layout), flags}
	b = binary.LittleEndian.AppendUint16(b, uint16(cfg.Seed))
	b = binary.LittleEndian.AppendUint16(b, uint16(cfg.MinDelay))
	b = binary.LittleEndian.AppendUint16(b, uint16(cfg.MaxDelay))
	b = binary.LittleEndian.AppendUint16(b, uint16(cfg.TickInterval))
	b = append(b, byte(sc.speed*10+0.5)-1)
	b = binary.LittleEndian.AppendUint16(b, uint16(sc.horizon/20))
	b = append(b, byte(tc.tiles-2), byte(tc.workers), byte(tc.mode))
	b = append(b, byte(len(sc.movers)))
	for _, id := range sc.movers {
		b = append(b, byte(id))
	}
	b = append(b, byte(len(sc.jumps)))
	for _, j := range sc.jumps {
		b = append(b, byte(j.id))
		b = binary.LittleEndian.AppendUint16(b, uint16(j.to.X*1000+0.5))
		b = binary.LittleEndian.AppendUint16(b, uint16(j.to.Y*1000+0.5))
		b = binary.LittleEndian.AppendUint16(b, uint16(j.settle/10))
		b = binary.LittleEndian.AppendUint16(b, uint16(j.at/10))
	}
	b = append(b, byte(len(sc.crashes)))
	for _, c := range sc.crashes {
		b = append(b, byte(c.id))
		b = binary.LittleEndian.AppendUint16(b, uint16(c.at/10))
	}
	return b
}

// staleDeliveries subscribes to w's bus a check that no message outlives
// the link incarnation it was sent on: at every link-up a—b, each end's
// floor for the other is the other's last send sequence so far, and a
// delivery from b to a at or below a's floor for b is a message of an
// earlier incarnation that should have been destroyed. It reports the
// first such delivery through *err. An oracle independent of the tiling,
// so a fault every engine shares is caught too.
func staleDeliveries(w *World, err *error) {
	lastSend := map[core.NodeID]uint64{}
	floor := map[[2]core.NodeID]uint64{} // {from, to}
	w.Bus().Subscribe(func(e *trace.Event) {
		switch e.Kind {
		case trace.KindSend:
			lastSend[e.Node] = e.MsgSeq
		case trace.KindLinkUp:
			floor[[2]core.NodeID{e.Peer, e.Node}] = lastSend[e.Peer]
			floor[[2]core.NodeID{e.Node, e.Peer}] = lastSend[e.Node]
		case trace.KindDeliver:
			if f := floor[[2]core.NodeID{e.Peer, e.Node}]; e.MsgSeq <= f && *err == nil {
				*err = fmt.Errorf("at %v node %d received send #%d of node %d, sent before the link came up again (floor %d)",
					e.At, e.Node, e.MsgSeq, e.Peer, f)
			}
		}
	}, trace.KindSend, trace.KindLinkUp, trace.KindDeliver)
}

// FuzzTileEquivalence is the determinism contract, fuzzed: a world decoded
// from the input (layout, size, delays including a MinDelay above the
// tick and a MaxDelay past the wheel's horizon, FIFO or not, movers, jump
// and crash scripts, horizon) runs on the 1×1 grid and again on a drawn
// grid, worker bound and window-mode schedule. Both runs must produce the
// same JSONL trace bytes and execute the same number of events, and no
// message may be delivered on a later incarnation of the link it was
// sent on. The corpus holds the 36 cases of TestShardedMatchesSingleHeap,
// the pulser world of TestWindowStopsAtOwnTick and, under testdata, the
// world that caught deliver's send-sequence floor relaxed to "<".
//
//	go test -run '^$' -fuzz FuzzTileEquivalence -fuzztime 30s ./internal/manet
func FuzzTileEquivalence(f *testing.F) {
	for _, lay := range shardedLayouts(48) {
		for _, seed := range []uint64{1, 7, 42, 1337} {
			for _, tiles := range []int{2, 4, 7} {
				f.Add(encodeTileCase(tileCase{sc: shardedScenario(lay), cfg: shardedConfig(lay, seed, 1, 0), tiles: tiles}))
			}
		}
	}
	grid := shardedLayouts(48)[1]
	pulse := scenario{lay: grid, pulse: true, speed: 3, movers: []core.NodeID{2, 17, 30, 45}, horizon: 800_000}
	pcfg := shardedConfig(grid, 7, 1, 0)
	pcfg.MinDelay, pcfg.MaxDelay = 30_000, 40_000
	for _, tiles := range []int{2, 4} {
		for mode := 1; mode <= 2; mode++ {
			f.Add(encodeTileCase(tileCase{sc: pulse, cfg: pcfg, tiles: tiles, workers: 2, mode: mode}))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tc := decodeTileCase(data)
		ref := tc.cfg
		ref.Tiles = 1
		var stale error
		refTrace, refN, err := tc.sc.runWith(ref, nil, func(w *World) { staleDeliveries(w, &stale) })
		if errors.Is(err, sim.ErrEventLimit) {
			t.Skip("the world outruns the event budget")
		}
		if err != nil {
			t.Fatal(err)
		}
		if stale != nil {
			t.Fatal(stale)
		}
		cfg := tc.cfg
		cfg.Tiles, cfg.ShardWorkers = tc.tiles, tc.workers
		var hook func() bool
		if tc.mode > 0 {
			hook = windowModes[tc.mode-1].hook()
		}
		got, gotN, err := tc.sc.run(cfg, hook)
		if err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("tiles=%d workers=%d mode=%d", tc.tiles, tc.workers, tc.mode)
		if len(refTrace) > 0 || len(got) > 0 { // a world without links may stay silent
			diffTraces(t, refTrace, got, what)
		}
		if gotN != refN {
			t.Fatalf("%s: %d events executed, the 1×1 grid executed %d", what, gotN, refN)
		}
	})
}
