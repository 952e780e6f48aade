package microbench

import (
	"testing"

	"lme/internal/core"
	"lme/internal/lme1"
	"lme/internal/lme2"
	"lme/internal/sim"
)

// The handler benchmarks time the protocol automata alone: real protocol
// instances on a δ = 8 star — a hub and its eight leaves — wired through a
// stub core.Env that queues every message and delivers it inline, with no
// scheduler, transport or observer in the way. They are the ledger's view
// of the layer a simulated run reports as core.handler_ns_per_call.

// handlerLeaves is the hub's degree.
const handlerLeaves = 8

// handlerRig is the star and its message queue. Node 0 is the hub.
type handlerRig struct {
	protos []core.Protocol
	envs   []rigEnv
	queue  []rigMsg // FIFO; one global queue keeps every link FIFO
}

type rigMsg struct {
	from, to core.NodeID
	msg      core.Message
}

// rigEnv is one node's stub core.Env.
type rigEnv struct {
	rig   *handlerRig
	id    core.NodeID
	nbrs  []core.NodeID
	state core.State
}

func (e *rigEnv) ID() core.NodeID          { return e.id }
func (e *rigEnv) Now() sim.Time            { return 0 }
func (e *rigEnv) Neighbors() []core.NodeID { return e.nbrs }
func (e *rigEnv) Moving() bool             { return false }
func (e *rigEnv) SetState(s core.State)    { e.state = s }

func (e *rigEnv) Send(to core.NodeID, msg core.Message) {
	e.rig.queue = append(e.rig.queue, rigMsg{from: e.id, to: to, msg: msg})
}

func (e *rigEnv) Broadcast(msg core.Message) {
	for _, to := range e.nbrs {
		e.Send(to, msg)
	}
}

func newHandlerRig(newProto func() core.Protocol) *handlerRig {
	r := &handlerRig{
		protos: make([]core.Protocol, 1+handlerLeaves),
		envs:   make([]rigEnv, 1+handlerLeaves),
	}
	hubNbrs := make([]core.NodeID, handlerLeaves)
	for i := range r.protos {
		id := core.NodeID(i)
		nbrs := []core.NodeID{0}
		if i == 0 {
			nbrs = hubNbrs
		} else {
			hubNbrs[i-1] = id
		}
		r.envs[i] = rigEnv{rig: r, id: id, nbrs: nbrs, state: core.Thinking}
		r.protos[i] = newProto()
	}
	for i, p := range r.protos {
		p.Init(&r.envs[i])
	}
	return r
}

// drain delivers queued messages, and those their handlers send, until
// none is left.
func (r *handlerRig) drain() {
	for i := 0; i < len(r.queue); i++ {
		m := r.queue[i]
		r.protos[m.to].OnMessage(m.from, m.msg)
	}
	clear(r.queue)
	r.queue = r.queue[:0]
}

// meal takes node id through hungry → eat → exit.
func (r *handlerRig) meal(b *testing.B, id int) {
	r.protos[id].BecomeHungry()
	r.drain()
	if r.envs[id].state != core.Eating {
		b.Fatalf("node %d is %v after its requests drained, want eating", id, r.envs[id].state)
	}
	r.protos[id].ExitCS()
	r.drain()
}

// round is one op: the hub's meal — eight forks to collect, since every
// leaf ate after the hub's last one — then each leaf's, which takes its
// fork away again.
func (r *handlerRig) round(b *testing.B) {
	for id := range r.protos {
		r.meal(b, id)
	}
}

func benchHandler(b *testing.B, newProto func() core.Protocol) {
	r := newHandlerRig(newProto)
	r.round(b) // reach the steady state, grow the queue
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.round(b)
	}
}

// HandlerLME1 measures Algorithm 1's handlers (greedy variant): one op is
// one hungry → eat → exit cycle of the δ = 8 hub plus one of each leaf,
// doorway traffic included.
func HandlerLME1(b *testing.B) {
	benchHandler(b, func() core.Protocol { return lme1.New(lme1.Config{}) })
}

// HandlerLME2 measures Algorithm 2's handlers on the same rig and cycle.
func HandlerLME2(b *testing.B) {
	benchHandler(b, func() core.Protocol { return lme2.New() })
}
