package lme2

import (
	"math/rand/v2"

	"lme/internal/core"
	"lme/internal/wire"
)

// Register the protocol's message types for the live runtime: explicit
// binary codecs (type IDs 0x0201–0x0204); see internal/lme1/wire.go for
// the layering rationale.
func init() {
	wire.Register(wire.Codec{
		ID: 0x0201, Name: "lme2.notification", Proto: msgNotification{},
		Append: func(b []byte, _ core.Message) []byte { return b },
		Decode: func(b []byte) (core.Message, error) {
			return msgNotification{}, wire.NewReader(b).Done()
		},
		Sample: func(*rand.Rand) core.Message { return msgNotification{} },
	})
	wire.Register(wire.Codec{
		ID: 0x0202, Name: "lme2.switch", Proto: msgSwitch{},
		Append: func(b []byte, _ core.Message) []byte { return b },
		Decode: func(b []byte) (core.Message, error) {
			return msgSwitch{}, wire.NewReader(b).Done()
		},
		Sample: func(*rand.Rand) core.Message { return msgSwitch{} },
	})
	wire.Register(wire.Codec{
		ID: 0x0203, Name: "lme2.req", Proto: msgReq{},
		Append: func(b []byte, _ core.Message) []byte { return b },
		Decode: func(b []byte) (core.Message, error) {
			return msgReq{}, wire.NewReader(b).Done()
		},
		Sample: func(*rand.Rand) core.Message { return msgReq{} },
	})
	wire.Register(wire.Codec{
		ID: 0x0204, Name: "lme2.fork", Proto: msgFork{},
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
}
