package manet

import (
	"fmt"
	"slices"
	"testing"

	"lme/internal/core"
	"lme/internal/graph"
	"lme/internal/sim"
)

// chatter is a protocol that turns link churn into message traffic, so the
// differential runs exercise the send/deliver/drop paths (FIFO floors,
// send-sequence floors, cross-tile deliveries) and not just link
// maintenance: every link-up sends a greeting, every greeting is echoed
// once.
type chatter struct {
	env core.Env
}

type msgHello struct{}
type msgEcho struct{}

func (c *chatter) Init(env core.Env) { c.env = env }
func (c *chatter) OnMessage(from core.NodeID, msg core.Message) {
	if _, ok := msg.(msgHello); ok {
		c.env.Send(from, msgEcho{})
	}
}
func (c *chatter) OnLinkUp(peer core.NodeID, iAmMoving bool) {
	c.env.Send(peer, msgHello{})
}
func (c *chatter) OnLinkDown(core.NodeID) {}
func (c *chatter) BecomeHungry()          {}
func (c *chatter) ExitCS()                {}
func (c *chatter) State() core.State      { return core.Thinking }

// linkOracle is the all-pairs reference for the spatial index, run as a
// LinkListener. At every link event a—b, which refreshLinks(a) raises
// with the peers in ascending order, it checks:
//   - that a refresh's events arrive in ascending peer order;
//   - that every pair not involving a is linked exactly when its
//     endpoints are within range — the topology events before this one
//     are complete;
//   - that a's pairs up to b already are, the rest being that refresh's
//     work still to come.
//
// check runs the same all-pairs comparison over the whole graph, for the
// initial topology and the end of a run.
type linkOracle struct {
	t      testing.TB
	w      *World
	events int
	// The refresh in progress: its node, time and last peer.
	a, b core.NodeID
	at   sim.Time
}

func newLinkOracle(t testing.TB, w *World) *linkOracle {
	o := &linkOracle{t: t, w: w, a: -1}
	w.AddLinkListener(o)
	return o
}

func (o *linkOracle) OnLink(a, b core.NodeID, up bool, at sim.Time) {
	o.t.Helper()
	o.events++
	if a == o.a && at == o.at && b <= o.b {
		o.t.Fatalf("t=%d: refresh of %d raised peer %d after %d", at, a, b, o.b)
	}
	o.a, o.b, o.at = a, b, at
	o.compare(func(x, y core.NodeID) bool {
		return x != a && y != a || x == a && y <= b || y == a && x <= b
	})
}

// check compares every pair.
func (o *linkOracle) check() {
	o.t.Helper()
	o.compare(func(x, y core.NodeID) bool { return true })
}

// compare checks the pairs x < y that settled(x, y) selects against
// positions.
func (o *linkOracle) compare(settled func(x, y core.NodeID) bool) {
	o.t.Helper()
	w := o.w
	r2 := w.cfg.Radius * w.cfg.Radius
	for x := core.NodeID(0); int(x) < w.N(); x++ {
		for y := x + 1; int(y) < w.N(); y++ {
			if !settled(x, y) {
				continue
			}
			want := w.Position(x).Dist2(w.Position(y)) <= r2
			if got := slices.Contains(w.Neighbors(x), y); got != want {
				o.t.Fatalf("t=%d: link %d—%d is %v, positions say %v", w.Now(), x, y, got, want)
			}
		}
	}
}

// differentialRun runs a randomized mobility scenario — waypoint movers,
// a scripted jump, crashes with messages mid-flight — under the link
// oracle, and returns how many link events it checked.
func differentialRun(t *testing.T, seed uint64) int {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Radius = 0.16
	w := NewWorld(cfg)
	o := newLinkOracle(t, w)

	pos := sim.NewRand(seed ^ 0xabcdef)
	const n = 40
	for i := 0; i < n; i++ {
		id := w.AddNode(graph.Point{X: pos.Float64(), Y: pos.Float64()})
		w.SetProtocol(id, &chatter{})
	}
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	o.check()
	movers := []core.NodeID{2, 9, 17, 25, 33}
	Waypoint{Speed: 0.6, PauseMin: 2_000, PauseMax: 25_000}.Attach(w, movers)
	// A teleport exercises the Jump path's index update, and crashes land
	// while movers are mid-trip with greetings in flight.
	w.JumpAt(11, graph.Point{X: 0.05, Y: 0.05}, 30_000, 120_000)
	w.CrashAt(9, 150_000)
	w.CrashAt(11, 260_000)

	if err := w.RunUntil(600_000, 2_000_000); err != nil {
		t.Fatal(err)
	}
	o.check()
	return o.events
}

// TestGridMatchesBruteForce is the differential oracle for the spatial
// index: across several seeds, every link event of grid-indexed link
// maintenance must leave the graph the all-pairs scan of positions
// describes, with each refresh's events in ascending peer order.
func TestGridMatchesBruteForce(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 1337} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			if events := differentialRun(t, seed); events == 0 {
				t.Fatal("the scenario raised no link event")
			}
		})
	}
}

// TestGridStartAdjacency checks the grid-built initial topology against
// the all-pairs scan on clustered positions that stress cell boundaries.
func TestGridStartAdjacency(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Radius = 0.2
	w := NewWorld(cfg)
	pos := sim.NewRand(5)
	for i := 0; i < 60; i++ {
		// Half the nodes hug cell corners, half are uniform.
		var p graph.Point
		if i%2 == 0 {
			p = graph.Point{X: 0.2 * float64(i%5), Y: 0.2 * float64(i%6)}
		} else {
			p = graph.Point{X: pos.Float64(), Y: pos.Float64()}
		}
		id := w.AddNode(p)
		w.SetProtocol(id, &chatter{})
	}
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	newLinkOracle(t, w).check()
}
