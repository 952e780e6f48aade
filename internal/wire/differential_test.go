package wire_test

// Codec differential suite: every registered message type must
// round-trip byte-exactly through its hand-written codec and decode to
// the same value the encoding/gob oracle produces — the same
// oracle-vs-fast-path discipline DESIGN.md §10 applies to the
// observability encoders. Runs over the full shipped registry (the
// blank imports pull in each algorithm's wire.go registrations); gob
// learns the concrete types here, from each codec's Sample, so no
// shipped package imports encoding/gob.

import (
	"bytes"
	"encoding/gob"
	"math/rand/v2"
	"reflect"
	"testing"

	"lme/internal/core"
	"lme/internal/wire"

	_ "lme/internal/baseline"
	_ "lme/internal/lme1"
	_ "lme/internal/lme2"
)

// oraclePayload is the oracle's framing: the message rides as an
// interface value so gob restores the registered concrete type.
type oraclePayload struct {
	M core.Message
}

func init() {
	rng := rand.New(rand.NewPCG(0x60B, 0))
	for _, c := range wire.Registered() {
		if c.Sample != nil {
			gob.Register(c.Sample(rng))
		}
	}
}

func gobRoundTrip(t *testing.T, msg core.Message) core.Message {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(oraclePayload{M: msg}); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	var out oraclePayload
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&out); err != nil {
		t.Fatalf("gob decode: %v", err)
	}
	return out.M
}

// TestRegistryCoversShippedProtocols pins the registry shape: the three
// algorithm packages must register all their message types in their
// reserved ID ranges, with Sample functions for this suite.
func TestRegistryCoversShippedProtocols(t *testing.T) {
	want := map[uint16]int{0x0100: 8, 0x0200: 4, 0x0300: 4}
	got := map[uint16]int{}
	for _, c := range wire.Registered() {
		got[c.ID&0xFF00]++
		// Test-range codecs (0x7Fxx) may skip Sample; shipped ones must not.
		if c.Sample == nil && c.ID&0xFF00 != 0x7F00 {
			t.Errorf("codec %s (%#04x) has no Sample — the differential suite cannot cover it", c.Name, c.ID)
		}
	}
	for rng, n := range want {
		if got[rng] != n {
			t.Errorf("ID range %#04x has %d codecs, want %d", rng, got[rng], n)
		}
	}
}

// TestCodecGobDifferential drives every registered codec with seeded
// pseudo-random samples: codec decode must reproduce the sample, a
// re-encode must be byte-exact, and the gob oracle must agree with the
// codec decode value-for-value.
func TestCodecGobDifferential(t *testing.T) {
	const samplesPerCodec = 250
	for _, c := range wire.Registered() {
		t.Run(c.Name, func(t *testing.T) {
			if c.Sample == nil {
				t.Skip("no Sample")
			}
			rng := rand.New(rand.NewPCG(0xD1FF, uint64(c.ID)))
			for i := 0; i < samplesPerCodec; i++ {
				msg := c.Sample(rng)
				if reflect.TypeOf(msg) != reflect.TypeOf(c.Proto) {
					t.Fatalf("Sample returned %T, want %T", msg, c.Proto)
				}

				enc, err := wire.AppendMessage(nil, msg)
				if err != nil {
					t.Fatalf("sample %d: encode: %v", i, err)
				}
				dec, err := wire.DecodeMessage(enc)
				if err != nil {
					t.Fatalf("sample %d: decode: %v\nmsg: %+v\nbytes: % x", i, err, msg, enc)
				}
				if !reflect.DeepEqual(dec, msg) {
					t.Fatalf("sample %d: codec round trip drift:\n in  %+v\n out %+v", i, msg, dec)
				}
				re, err := wire.AppendMessage(nil, dec)
				if err != nil {
					t.Fatalf("sample %d: re-encode: %v", i, err)
				}
				if !bytes.Equal(re, enc) {
					t.Fatalf("sample %d: re-encode not byte-exact:\n first  % x\n second % x", i, enc, re)
				}

				oracle := gobRoundTrip(t, msg)
				if !reflect.DeepEqual(oracle, dec) {
					t.Fatalf("sample %d: codec and gob oracle disagree:\n codec %+v\n gob   %+v", i, dec, oracle)
				}
			}
		})
	}
}

// TestCodecRejectsMutations flips each byte of an encoded sample and
// requires decode to either error or yield a value of the registered
// type — never panic. (A flipped type-ID byte may legitimately decode as
// a different registered type; the transport's length-prefix and mseq
// dedup layers own those cases.)
func TestCodecRejectsMutations(t *testing.T) {
	for _, c := range wire.Registered() {
		if c.Sample == nil {
			continue
		}
		rng := rand.New(rand.NewPCG(0xBAD, uint64(c.ID)))
		msg := c.Sample(rng)
		enc, err := wire.AppendMessage(nil, msg)
		if err != nil {
			t.Fatalf("%s: encode: %v", c.Name, err)
		}
		for pos := 0; pos < len(enc); pos++ {
			mut := append([]byte(nil), enc...)
			mut[pos] ^= 0xFF
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s: decode panicked on mutation at byte %d: %v", c.Name, pos, r)
					}
				}()
				wire.DecodeMessage(mut) //nolint:errcheck // error or clean value both fine
			}()
		}
		// Truncations likewise must fail cleanly.
		for cut := 0; cut < len(enc); cut++ {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s: decode panicked on truncation to %d bytes: %v", c.Name, cut, r)
					}
				}()
				wire.DecodeMessage(enc[:cut]) //nolint:errcheck
			}()
		}
	}
}

// codecVsGobBudget caps TestCodecVsGob: the codecs must run in at most
// half the gob oracle's time per message, in both directions.
const codecVsGobBudget = 0.5

// TestCodecVsGob times the codecs against the gob oracle — one fresh gob
// encoder or decoder per message, the way a per-frame transport would run
// it — over one sample of every shipped message type, back to back in one
// process, so the ratio does not depend on the machine's speed. A ratio
// above the budget means the fast path has stopped being one.
func TestCodecVsGob(t *testing.T) {
	if testing.Short() {
		t.Skip("times four benchmarks")
	}
	rng := rand.New(rand.NewPCG(0xBE7C, 0x7A11))
	var msgs []core.Message
	var encs, gobs [][]byte
	for _, c := range wire.Registered() {
		if c.Sample == nil {
			continue
		}
		m := c.Sample(rng)
		enc, err := wire.AppendMessage(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(oraclePayload{M: m}); err != nil {
			t.Fatal(err)
		}
		msgs, encs, gobs = append(msgs, m), append(encs, enc), append(gobs, buf.Bytes())
	}
	nsPerOp := func(body func(i int) error) float64 {
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := body(i % len(msgs)); err != nil {
					b.Fatal(err)
				}
			}
		})
		if r.N == 0 {
			t.Fatal("benchmark did not run")
		}
		return float64(r.T.Nanoseconds()) / float64(r.N)
	}
	out := make([]byte, 0, 1024)
	var buf bytes.Buffer
	encC := nsPerOp(func(i int) (err error) {
		out, err = wire.AppendMessage(out[:0], msgs[i])
		return err
	})
	decC := nsPerOp(func(i int) error {
		_, err := wire.DecodeMessage(encs[i])
		return err
	})
	encG := nsPerOp(func(i int) error {
		buf.Reset()
		return gob.NewEncoder(&buf).Encode(oraclePayload{M: msgs[i]})
	})
	decG := nsPerOp(func(i int) error {
		var p oraclePayload
		return gob.NewDecoder(bytes.NewReader(gobs[i])).Decode(&p)
	})
	ratio := max(encC/encG, decC/decG)
	t.Logf("codec vs gob %.3fx (encode %.1f vs %.1f ns, decode %.1f vs %.1f ns; budget %.2fx)",
		ratio, encC, encG, decC, decG, codecVsGobBudget)
	if ratio > codecVsGobBudget {
		t.Errorf("codec vs gob %.3fx exceeds the %.2fx budget", ratio, codecVsGobBudget)
	}
}

// TestCodecEncodeDoesNotAllocate: appending one sample of every shipped
// message type to a reused buffer allocates nothing.
func TestCodecEncodeDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xA110C, 0))
	var msgs []core.Message
	for _, c := range wire.Registered() {
		if c.Sample != nil {
			msgs = append(msgs, c.Sample(rng))
		}
	}
	buf := make([]byte, 0, 1024)
	if avg := testing.AllocsPerRun(100, func() {
		for _, m := range msgs {
			var err error
			if buf, err = wire.AppendMessage(buf[:0], m); err != nil {
				t.Fatal(err)
			}
		}
	}); avg != 0 {
		t.Fatalf("encoding %d messages allocates %.2f times", len(msgs), avg)
	}
}
