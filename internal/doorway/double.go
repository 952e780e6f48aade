package doorway

import "lme/internal/core"

// Double is the double doorway of Figure 3: a synchronous doorway nested
// inside an asynchronous one. Its entry code runs the asynchronous entry
// followed by the synchronous entry; its exit code reverses the order.
// Lemma 1 bounds its traversal by O(δT) when the module behind it takes T;
// Lemma 2 covers the return-path variant (ReturnToInner), used by the
// fork-collection module when a low neighbour departs with a shared fork.
//
// Like Doorway, Double is a passive single-threaded component: the owner
// routes observations to the inner and outer doorways through Observe and
// the link-change methods, and learns about full entry through onEnter.
// Unlike Doorway it addresses neighbours by ID: it owns the sorted
// neighbour table both sub-doorways are aligned with and resolves each ID
// to its slot once per call.
type Double struct {
	nbrs  core.Slots[struct{}]
	outer *Doorway // asynchronous
	inner *Doorway // synchronous
}

// NewDouble builds a double doorway over the given neighbour set (ascending
// IDs, as Env.Neighbors returns them). announce reports this node's own
// position changes per sub-doorway (inner=true for the synchronous one);
// onEnter fires when the synchronous doorway is crossed, i.e. the node is
// fully behind the double doorway.
func NewDouble(neighbors []core.NodeID, announce func(inner, cross bool), onEnter func()) *Double {
	d := &Double{}
	d.nbrs.Reset(neighbors)
	d.inner = New(Synchronous, len(neighbors),
		func(cross bool) { announce(true, cross) },
		onEnter)
	d.outer = New(Asynchronous, len(neighbors),
		func(cross bool) { announce(false, cross) },
		func() { d.inner.BeginEntry() })
	return d
}

// BeginEntry starts the composite entry code.
func (d *Double) BeginEntry() { d.outer.BeginEntry() }

// Exit runs the composite exit code: inner first, then outer (Figure 3).
func (d *Double) Exit() {
	d.inner.Exit()
	d.outer.Exit()
}

// ReturnToInner is the return path of Figure 4: exit the synchronous
// doorway and immediately re-enter it, staying behind the asynchronous
// one. Only valid while fully behind the double doorway.
func (d *Double) ReturnToInner() {
	d.inner.Exit()
	d.inner.BeginEntry()
}

// Abort cancels any entry in progress without announcements and exits
// whatever was crossed.
func (d *Double) Abort() {
	if d.inner.Behind() {
		d.inner.Exit()
	} else {
		d.inner.Abort()
	}
	if d.outer.Behind() {
		d.outer.Exit()
	} else {
		d.outer.Abort()
	}
}

// Behind reports whether the node is fully behind the double doorway.
func (d *Double) Behind() bool { return d.inner.Behind() }

// BehindOuter reports whether the asynchronous doorway has been crossed.
func (d *Double) BehindOuter() bool { return d.outer.Behind() }

// Entering reports whether any entry code is in progress.
func (d *Double) Entering() bool { return d.outer.Entering() || d.inner.Entering() }

// Observe records a neighbour's position announcement for the selected
// sub-doorway. An announcement from a node that is not a neighbour is
// ignored: its link is gone, and the message with it.
func (d *Double) Observe(j core.NodeID, inner bool, p Pos) {
	i := d.nbrs.Find(j)
	if i < 0 {
		return
	}
	if inner {
		d.inner.Observe(i, p)
	} else {
		d.outer.Observe(i, p)
	}
}

// AddNeighbor installs a new neighbour in both sub-doorways. Re-adding a
// current neighbour overwrites its observed positions in place; like a
// genuine addition it never triggers a crossing.
func (d *Double) AddNeighbor(j core.NodeID, innerPos, outerPos Pos) {
	i, fresh := d.nbrs.Insert(j)
	if !fresh {
		d.inner.Set(i, innerPos)
		d.outer.Set(i, outerPos)
		return
	}
	d.inner.Add(i, innerPos)
	d.outer.Add(i, outerPos)
}

// Forget drops a departed neighbour from both sub-doorways; a node that
// is not a neighbour is ignored.
func (d *Double) Forget(j core.NodeID) {
	i, _ := d.nbrs.Remove(j)
	if i < 0 {
		return
	}
	d.inner.Forget(i)
	d.outer.Forget(i)
}
