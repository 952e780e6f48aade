package lme1

import (
	"math/rand/v2"

	"lme/internal/coloring"
	"lme/internal/core"
	"lme/internal/doorway"
	"lme/internal/wire"
)

// The live runtime's UDP transport moves protocol messages as explicit
// binary codecs registered here (type IDs 0x0101–0x0108; see
// internal/wire). Registration keeps the algorithm core free of any
// runtime import: the transport never names these types, and this
// package never names the transport.
func init() {
	wire.Register(wire.Codec{
		ID: 0x0101, Name: "lme1.doorway", Proto: msgDoorway{},
		Append: func(b []byte, m core.Message) []byte {
			v := m.(msgDoorway)
			b = wire.AppendUvarint(b, uint64(v.D))
			return wire.AppendBool(b, v.Cross)
		},
		Decode: func(b []byte) (core.Message, error) {
			r := wire.NewReader(b)
			v := msgDoorway{D: dwIndex(r.Uvarint()), Cross: r.Bool()}
			return v, r.Done()
		},
		Sample: func(rng *rand.Rand) core.Message {
			return msgDoorway{D: dwIndex(rng.IntN(int(numDoorways))), Cross: rng.IntN(2) == 0}
		},
	})
	wire.Register(wire.Codec{
		ID: 0x0102, Name: "lme1.update_color", Proto: msgUpdateColor{},
		Append: func(b []byte, m core.Message) []byte {
			return wire.AppendVarint(b, int64(m.(msgUpdateColor).Color))
		},
		Decode: func(b []byte) (core.Message, error) {
			r := wire.NewReader(b)
			v := msgUpdateColor{Color: int(r.Varint())}
			return v, r.Done()
		},
		Sample: func(rng *rand.Rand) core.Message {
			return msgUpdateColor{Color: rng.IntN(64)}
		},
	})
	wire.Register(wire.Codec{
		ID: 0x0103, Name: "lme1.status", Proto: msgStatus{},
		Append: func(b []byte, m core.Message) []byte {
			v := m.(msgStatus)
			b = wire.AppendVarint(b, int64(v.Color))
			for _, p := range v.Pos {
				b = wire.AppendUvarint(b, uint64(p))
			}
			return b
		},
		Decode: func(b []byte) (core.Message, error) {
			r := wire.NewReader(b)
			v := msgStatus{Color: int(r.Varint())}
			for d := range v.Pos {
				v.Pos[d] = doorway.Pos(r.Uvarint())
			}
			return v, r.Done()
		},
		Sample: func(rng *rand.Rand) core.Message {
			v := msgStatus{Color: rng.IntN(64)}
			for d := range v.Pos {
				v.Pos[d] = doorway.Pos(1 + rng.IntN(2))
			}
			return v
		},
	})
	wire.Register(wire.Codec{
		ID: 0x0104, Name: "lme1.req", Proto: msgReq{},
		Append: func(b []byte, _ core.Message) []byte { return b },
		Decode: func(b []byte) (core.Message, error) {
			return msgReq{}, wire.NewReader(b).Done()
		},
		Sample: func(*rand.Rand) core.Message { return msgReq{} },
	})
	wire.Register(wire.Codec{
		ID: 0x0105, Name: "lme1.fork", Proto: msgFork{},
		Append: func(b []byte, m core.Message) []byte {
			return wire.AppendBool(b, m.(msgFork).Flag)
		},
		Decode: func(b []byte) (core.Message, error) {
			r := wire.NewReader(b)
			v := msgFork{Flag: r.Bool()}
			return v, r.Done()
		},
		Sample: func(rng *rand.Rand) core.Message {
			return msgFork{Flag: rng.IntN(2) == 0}
		},
	})
	wire.Register(wire.Codec{
		ID: 0x0106, Name: "lme1.nack", Proto: msgNACK{},
		Append: func(b []byte, _ core.Message) []byte { return b },
		Decode: func(b []byte) (core.Message, error) {
			return msgNACK{}, wire.NewReader(b).Done()
		},
		Sample: func(*rand.Rand) core.Message { return msgNACK{} },
	})
	wire.Register(wire.Codec{
		ID: 0x0107, Name: "lme1.graph", Proto: msgGraph{},
		Append: func(b []byte, m core.Message) []byte {
			v := m.(msgGraph)
			b = wire.AppendUvarint(b, uint64(len(v.Edges)))
			for _, e := range v.Edges {
				b = wire.AppendVarint(b, int64(e.A))
				b = wire.AppendVarint(b, int64(e.B))
			}
			return wire.AppendBool(b, v.Finished)
		},
		Decode: func(b []byte) (core.Message, error) {
			r := wire.NewReader(b)
			n := r.Uvarint()
			v := msgGraph{}
			if n > 0 && n <= uint64(len(b)) {
				// A zero count decodes to a nil slice, matching the gob
				// oracle's round trip of the empty value. The length guard
				// rejects corrupt counts before allocating.
				v.Edges = make([]coloring.Edge, n)
				for i := range v.Edges {
					v.Edges[i].A = core.NodeID(r.Varint())
					v.Edges[i].B = core.NodeID(r.Varint())
				}
			}
			v.Finished = r.Bool()
			return v, r.Done()
		},
		Sample: func(rng *rand.Rand) core.Message {
			v := msgGraph{Finished: rng.IntN(2) == 0}
			if n := rng.IntN(6); n > 0 {
				v.Edges = make([]coloring.Edge, n)
				for i := range v.Edges {
					a, bb := core.NodeID(rng.IntN(100)), core.NodeID(100+rng.IntN(100))
					v.Edges[i] = coloring.NewEdge(a, bb)
				}
			}
			return v
		},
	})
	wire.Register(wire.Codec{
		ID: 0x0108, Name: "lme1.temp_color", Proto: msgTempColor{},
		Append: func(b []byte, m core.Message) []byte {
			v := m.(msgTempColor)
			b = wire.AppendVarint(b, int64(v.Phase))
			return wire.AppendVarint(b, int64(v.Color))
		},
		Decode: func(b []byte) (core.Message, error) {
			r := wire.NewReader(b)
			v := msgTempColor{Phase: int(r.Varint()), Color: int(r.Varint())}
			return v, r.Done()
		},
		Sample: func(rng *rand.Rand) core.Message {
			return msgTempColor{Phase: rng.IntN(10), Color: rng.IntN(64)}
		},
	})
}
