package manet

import (
	"math"

	"lme/internal/core"
	"lme/internal/graph"
	"lme/internal/sim"
)

// MoveTo starts continuous movement of id toward dest at the given speed
// (plane units per second, must be positive). The node is flagged moving
// immediately; its links are recomputed every TickInterval as it advances
// and once more on arrival, when it becomes static again. Starting a new
// movement supersedes any movement in progress.
//
// Movement ticks are ClassTopo events owned by the mover: topology
// mutations the sharded engine serialises on its coordinator between
// windows. Callable from the mover's own execution context or while the
// world is paused.
func (w *World) MoveTo(id core.NodeID, dest graph.Point, speed float64) {
	n := w.nodes[id]
	if n.crashed || speed <= 0 {
		return
	}
	w.setMoving(n, true)
	n.target = dest
	n.speed = speed
	n.moveID++
	w.scheduleTick(n, n.moveID)
}

// Jump teleports id to dest: the node is flagged moving, relocated, its
// links recomputed, and it becomes static again after settle time units
// (minimum one tick). Jump models the scripted "node moves to a new
// neighbourhood" steps of the paper's scenarios without path simulation.
// Coordinator context only (between runs, or inside a JumpAt event).
func (w *World) Jump(id core.NodeID, dest graph.Point, settle sim.Time) {
	n := w.nodes[id]
	if n.crashed {
		return
	}
	if settle <= 0 {
		settle = 1
	}
	w.setMoving(n, true)
	n.moveID++
	moveID := n.moveID
	w.relocate(n, dest)
	w.refreshLinks(id)
	w.scheduleLocalAt(n, w.nowOf(n)+settle, func() {
		if n.moveID != moveID || n.crashed {
			return
		}
		w.setMoving(n, false)
	})
}

// JumpAt schedules a Jump at time t, as a topology event owned by id.
func (w *World) JumpAt(id core.NodeID, dest graph.Point, settle, t sim.Time) {
	n := w.nodes[id]
	w.scheduleTopo(n, t, sim.Item{X: func() { w.Jump(id, dest, settle) }})
}

// moveTicker is one pooled movement-tick record: the sim.Runner the
// movement engine schedules instead of a fresh closure per tick. A node
// can have several ticks in flight after a superseding MoveTo, so each
// scheduled tick gets its own record (carrying the moveID that validates
// it) and returns to the pool after firing. Ticks always execute in
// coordinator context (they are ClassTopo), so the pool needs no lock;
// ticks scheduled from a tile worker (a waypoint trip start) allocate
// fresh records instead of touching the shared pool.
type moveTicker struct {
	w      *World
	n      *node
	moveID uint64
}

// Run implements sim.Runner.
func (t *moveTicker) Run() {
	w := t.w
	w.moveTick(t.n, t.moveID)
	t.n = nil
	w.freeTickers = append(w.freeTickers, t)
}

func (w *World) scheduleTick(n *node, moveID uint64) {
	var t *moveTicker
	if sx := w.shard; sx == nil || !sx.inWindow {
		if k := len(w.freeTickers); k > 0 {
			t = w.freeTickers[k-1]
			w.freeTickers = w.freeTickers[:k-1]
		}
	}
	if t == nil {
		t = new(moveTicker)
	}
	*t = moveTicker{w: w, n: n, moveID: moveID}
	w.scheduleTopo(n, w.nowOf(n)+w.cfg.TickInterval, sim.Item{X: t})
}

func (w *World) moveTick(n *node, moveID uint64) {
	if n.moveID != moveID || n.crashed || !n.moving {
		return
	}
	step := n.speed * float64(w.cfg.TickInterval) / 1e6
	dx, dy := n.target.X-n.pos.X, n.target.Y-n.pos.Y
	dist := math.Hypot(dx, dy)
	if dist <= step {
		// Refresh while still flagged moving, as Jump does: a link that
		// forms on arrival has a moving end, the arriving node, so the
		// moving role never falls to a static (or crashed) peer.
		w.relocate(n, n.target)
		w.refreshLinks(n.id)
		w.setMoving(n, false)
		return
	}
	w.relocate(n, graph.Point{
		X: n.pos.X + dx/dist*step,
		Y: n.pos.Y + dy/dist*step,
	})
	w.refreshLinks(n.id)
	w.scheduleTick(n, moveID)
}

// Waypoint drives a subset of nodes with the random-waypoint mobility
// model: each mover repeatedly pauses, picks a uniform destination on the
// unit square, and travels there at its speed. Pause lengths and
// destinations are drawn from each mover's private random stream, so the
// model is deterministic under any tiling and worker count.
type Waypoint struct {
	// Speed in plane units per second.
	Speed float64
	// PauseMin and PauseMax bound the uniform pause between trips.
	PauseMin, PauseMax sim.Time
	// Until stops issuing new trips after this time (0 = forever).
	Until sim.Time
}

// Attach starts the waypoint process for each of the given nodes. Each
// mover gets one reusable wpRunner that carries the whole
// pause→travel→arrive cycle: at most one pending event per mover, zero
// allocations per trip.
func (wp Waypoint) Attach(w *World, ids []core.NodeID) {
	for _, id := range ids {
		r := &wpRunner{w: w, n: w.nodes[id], wp: wp}
		r.scheduleNext()
	}
}

// wpRunner is the per-mover waypoint state machine. Both of its states
// are node-local events (ClassLocal, owned by the mover): starting a trip
// touches only the mover's own movement fields and hands the actual
// topology work to ClassTopo ticks, and arrival polling just reads the
// mover's flag. watching selects the state: false = a pause is elapsing
// and the next firing starts a trip; true = a trip is underway and the
// next firing polls for arrival. Polling at tick granularity keeps the
// mobility model independent of the movement engine's internals.
type wpRunner struct {
	w        *World
	n        *node
	wp       Waypoint
	watching bool
}

// Run implements sim.Runner.
func (r *wpRunner) Run() {
	w, n := r.w, r.n
	if n.crashed {
		return
	}
	now := w.nowOf(n)
	if r.watching {
		if n.moving {
			w.scheduleLocalAt(n, now+w.cfg.TickInterval, r)
			return
		}
		r.watching = false
		r.scheduleNext()
		return
	}
	// Pause elapsed: start the next trip.
	if r.wp.Until > 0 && now >= r.wp.Until {
		return
	}
	dest := graph.Point{X: n.rng.Float64(), Y: n.rng.Float64()}
	w.MoveTo(n.id, dest, r.wp.Speed)
	r.watching = true
	w.scheduleLocalAt(n, now+w.cfg.TickInterval, r)
}

// scheduleNext draws the pause before the mover's next trip and
// reschedules the runner for it.
func (r *wpRunner) scheduleNext() {
	pause := r.wp.PauseMin
	if span := int64(r.wp.PauseMax - r.wp.PauseMin); span > 0 {
		pause += sim.Time(r.n.rng.Int64N(span + 1))
	}
	r.w.scheduleLocalAt(r.n, r.w.nowOf(r.n)+pause, r)
}
