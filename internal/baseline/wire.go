package baseline

import (
	"math/rand/v2"

	"lme/internal/core"
	"lme/internal/wire"
)

// Register the baselines' message types for the live runtime: explicit
// binary codecs (type IDs 0x0301–0x0304); see internal/lme1/wire.go for
// the layering rationale. (ChoySingh and NoNotify reuse lme1/lme2
// messages, registered there.)
func init() {
	empty := func(proto core.Message) func(b []byte) (core.Message, error) {
		return func(b []byte) (core.Message, error) {
			return proto, wire.NewReader(b).Done()
		}
	}
	nop := func(b []byte, _ core.Message) []byte { return b }

	wire.Register(wire.Codec{
		ID: 0x0301, Name: "baseline.cm_req", Proto: cmReq{},
		Append: nop, Decode: empty(cmReq{}),
		Sample: func(*rand.Rand) core.Message { return cmReq{} },
	})
	wire.Register(wire.Codec{
		ID: 0x0302, Name: "baseline.cm_fork", Proto: cmFork{},
		Append: nop, Decode: empty(cmFork{}),
		Sample: func(*rand.Rand) core.Message { return cmFork{} },
	})
	wire.Register(wire.Codec{
		ID: 0x0303, Name: "baseline.token_req", Proto: tokenReq{},
		Append: nop, Decode: empty(tokenReq{}),
		Sample: func(*rand.Rand) core.Message { return tokenReq{} },
	})
	wire.Register(wire.Codec{
		ID: 0x0304, Name: "baseline.token_grant", Proto: tokenGrant{},
		Append: nop, Decode: empty(tokenGrant{}),
		Sample: func(*rand.Rand) core.Message { return tokenGrant{} },
	})
}
