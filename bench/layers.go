package bench

import (
	"time"

	"lme/internal/core"
	"lme/internal/sim"
	"lme/internal/wire"
)

// Direct timed calls into public functions of wire and sim: the layers
// whose cost per operation is too small to time call by call inside a
// run, measured in isolation on the inputs the run actually produced.

// The probes' results land here so the compiler cannot drop the calls.
var (
	sinkMsg    core.Message
	sinkFrames int
)

// probeBudget is how long each direct-call probe loops.
const probeBudget = 20 * time.Millisecond

// timeLoop runs body (one batch of `batch` operations) until the probe
// budget is spent and returns nanoseconds per operation.
func timeLoop(batch int, body func()) float64 {
	body() // warm caches and grow buffers
	ops := 0
	start := now()
	for now()-start < int64(probeBudget) {
		body()
		ops += batch
	}
	return float64(now()-start) / float64(ops)
}

// wireProbe times the codec and the datagram framing on the messages the
// Transport decorator captured. framesPerDgram is the coalescing density
// the run observed (≤ 0 on the channel transport: one frame per datagram
// is then the stand-in).
func wireProbe(m map[string]float64, msgs []core.Message, framesPerDgram float64) {
	if len(msgs) == 0 {
		return
	}
	encs := make([][]byte, 0, len(msgs))
	total := 0
	for _, msg := range msgs {
		enc, err := wire.AppendMessage(nil, msg)
		if err != nil {
			continue // the channel transport carries unregistered types too
		}
		encs = append(encs, enc)
		total += len(enc)
	}
	if len(encs) == 0 {
		return
	}
	msgs = msgs[:len(encs)]
	buf := make([]byte, 0, 4096)
	m["wire.encode_ns_per_msg"] = timeLoop(len(msgs), func() {
		for _, msg := range msgs {
			buf, _ = wire.AppendMessage(buf[:0], msg) //nolint:errcheck // encoded once above
		}
	})
	m["wire.decode_ns_per_msg"] = timeLoop(len(encs), func() {
		for _, enc := range encs {
			sinkMsg, _ = wire.DecodeMessage(enc) //nolint:errcheck // decoding our own encoding
		}
	})
	m["wire.payload_bytes_per_msg"] = float64(total) / float64(len(encs))

	k := max(int(framesPerDgram+0.5), 1)
	build := func() []byte {
		buf = wire.AppendDgramHeader(buf[:0], 1, 2)
		for i := 0; i < k; i++ {
			buf = wire.AppendFrame(buf, uint64(i+1), uint64(i+1), 0, encs[i%len(encs)])
		}
		return buf
	}
	m["wire.frame_build_ns"] = timeLoop(k, func() { build() })
	dgram := append([]byte(nil), build()...)
	m["wire.parse_ns_per_dgram"] = timeLoop(1, func() {
		_, body, err := wire.ParseDgram(dgram)
		for err == nil && len(body) > 0 {
			_, body, err = wire.NextFrame(body)
			sinkFrames++
		}
	})
}

// standing is how many events each scheduler probe keeps queued.
const standing = 512

// schedulerProbe times the two event queues of the simulator in
// isolation: the single-heap sim.Scheduler the experiment tables run on,
// and the value-typed EventHeap under the canonical key that every tile
// of the sharded engine runs on.
func schedulerProbe(m map[string]float64) {
	s := sim.NewScheduler(1)
	var fn func()
	fn = func() { s.After(sim.Time(standing), fn) }
	for i := 0; i < standing; i++ {
		s.At(sim.Time(i), fn)
	}
	m["sim.scheduler_ns_per_event"] = timeLoop(standing, func() {
		for i := 0; i < standing; i++ {
			s.Step()
		}
	})

	var h sim.EventHeap
	at := sim.Time(0)
	for i := 0; i < standing; i++ {
		at++
		h.Push(sim.Item{K: sim.Key{At: at, Owner: int32(i % 64), Class: sim.ClassDeliver, A: uint64(i), B: uint64(at)}})
	}
	m["sim.eventheap_ns_per_op"] = timeLoop(standing, func() {
		for i := 0; i < standing; i++ {
			it := h.Pop()
			it.K.At += standing
			h.Push(it)
		}
	})
}
