package wire

import (
	"bytes"
	"strings"
	"testing"

	"lme/internal/core"
)

type regA struct{ X int }
type regB struct{ Y bool }

// register the local fixtures once; Register panics on duplicates, so
// the helpers below use fresh types per failure case.
func init() {
	Register(Codec{
		ID: 0x7FF0, Name: "wire_test.a", Proto: regA{},
		Append: func(b []byte, m core.Message) []byte {
			return AppendVarint(b, int64(m.(regA).X))
		},
		Decode: func(b []byte) (core.Message, error) {
			r := NewReader(b)
			v := regA{X: int(r.Varint())}
			return v, r.Done()
		},
	})
}

func mustPanic(t *testing.T, contains string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want one containing %q", contains)
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, contains) {
			t.Fatalf("panic %v, want it to contain %q", r, contains)
		}
	}()
	fn()
}

func TestRegisterRejectsBadCodecs(t *testing.T) {
	nopA := func(b []byte, _ core.Message) []byte { return b }
	decA := func(b []byte) (core.Message, error) { return regB{}, nil }

	mustPanic(t, "ID 0 is reserved", func() {
		Register(Codec{Name: "zero", Proto: regB{}, Append: nopA, Decode: decA})
	})
	mustPanic(t, "nil Append or Decode", func() {
		Register(Codec{ID: 0x7FF1, Name: "nofuncs", Proto: regB{}})
	})
	mustPanic(t, "already used", func() {
		Register(Codec{ID: 0x7FF0, Name: "dup-id", Proto: regB{}, Append: nopA, Decode: decA})
	})
	mustPanic(t, "already registered", func() {
		Register(Codec{ID: 0x7FF2, Name: "dup-type", Proto: regA{}, Append: nopA, Decode: decA})
	})
}

func TestAppendMessageRoundTrip(t *testing.T) {
	buf, err := AppendMessage(nil, regA{X: -42})
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) < 2 || buf[0] != 0x7F || buf[1] != 0xF0 {
		t.Fatalf("type-ID prefix wrong: % x", buf)
	}
	msg, err := DecodeMessage(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := msg.(regA); got.X != -42 {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestAppendMessageUnregistered(t *testing.T) {
	type never struct{}
	buf := []byte{1, 2, 3}
	out, err := AppendMessage(buf, never{})
	if err == nil {
		t.Fatal("no error for an unregistered type")
	}
	if _, ok := err.(*UnregisteredError); !ok {
		t.Fatalf("error %T, want *UnregisteredError", err)
	}
	if len(out) != len(buf) {
		t.Fatalf("buffer mutated on error: %d bytes, want %d", len(out), len(buf))
	}
}

func TestDecodeMessageErrors(t *testing.T) {
	if _, err := DecodeMessage([]byte{0x7F}); err == nil {
		t.Error("short payload decoded")
	}
	if _, err := DecodeMessage([]byte{0x00, 0x00}); err == nil {
		t.Error("reserved ID 0 decoded")
	}
	if _, err := DecodeMessage([]byte{0x7F, 0xEE}); err == nil {
		t.Error("unknown ID decoded")
	}
	// Trailing garbage after a valid body must be rejected, not ignored.
	buf, _ := AppendMessage(nil, regA{X: 3})
	if _, err := DecodeMessage(append(buf, 0xFF)); err == nil {
		t.Error("trailing garbage decoded")
	}
	// Truncated body likewise.
	if _, err := DecodeMessage(buf[:2]); err == nil && len(buf) > 2 {
		t.Error("truncated body decoded")
	}
}

func TestReaderLatchesErrors(t *testing.T) {
	r := NewReader(nil)
	if v := r.Uvarint(); v != 0 {
		t.Errorf("Uvarint on empty = %d", v)
	}
	if r.Bool() {
		t.Error("Bool on empty = true")
	}
	if r.Done() == nil {
		t.Error("Done() nil after underflow")
	}
}

func TestDgramRoundTrip(t *testing.T) {
	pkt := AppendDgramHeader(nil, 3, 9)
	pkt = AppendFrame(pkt, 7, 101, 555_000, []byte("hello"))
	pkt = AppendFrame(pkt, 8, 102, 556_000, nil)
	SetDgramAck(pkt, 42)

	hdr, body, err := ParseDgram(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.From != 3 || hdr.To != 9 || !hdr.HasAck() || hdr.Ack != 42 || hdr.Gob() {
		t.Fatalf("header = %+v", hdr)
	}
	f1, rest, err := NextFrame(body)
	if err != nil {
		t.Fatal(err)
	}
	if f1.Seq != 7 || f1.Mseq != 101 || f1.SentAt != 555_000 || string(f1.Payload) != "hello" {
		t.Fatalf("frame 1 = %+v", f1)
	}
	f2, rest, err := NextFrame(rest)
	if err != nil {
		t.Fatal(err)
	}
	if f2.Seq != 8 || len(f2.Payload) != 0 {
		t.Fatalf("frame 2 = %+v", f2)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}

	// A standalone ACK datagram is just the header.
	ack := AppendDgramHeader(nil, 9, 3)
	SetDgramAck(ack, 7)
	hdr2, body2, err := ParseDgram(ack)
	if err != nil {
		t.Fatal(err)
	}
	if !hdr2.HasAck() || hdr2.Ack != 7 || len(body2) != 0 {
		t.Fatalf("ack datagram = %+v body %d bytes", hdr2, len(body2))
	}
}

func TestDgramRejectsCorruption(t *testing.T) {
	if _, _, err := ParseDgram([]byte{2, 0, 0}); err == nil {
		t.Error("short datagram parsed")
	}
	bad := AppendDgramHeader(nil, 1, 2)
	bad[0] = 1 // v1 datagrams no longer exist
	if _, _, err := ParseDgram(bad); err == nil {
		t.Error("wrong version parsed")
	}
	pkt := AppendDgramHeader(nil, 1, 2)
	pkt = AppendFrame(pkt, 1, 1, 0, []byte("abc"))
	_, body, err := ParseDgram(pkt[:len(pkt)-2]) // truncate the payload
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := NextFrame(body); err == nil {
		t.Error("truncated frame parsed")
	}
	if _, _, err := NextFrame(body[:10]); err == nil {
		t.Error("truncated frame header parsed")
	}
}

func TestGobFlag(t *testing.T) {
	pkt := AppendDgramHeader(nil, 1, 2)
	SetDgramGob(pkt)
	hdr, _, err := ParseDgram(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if !hdr.Gob() || hdr.HasAck() {
		t.Fatalf("flags = %+v", hdr)
	}
}

func TestBackfillFrameLen(t *testing.T) {
	pkt := AppendDgramHeader(nil, 1, 2)
	start := len(pkt)
	pkt = AppendFrame(pkt, 5, 6, 7, nil)
	pkt = append(pkt, "xyz"...)
	BackfillFrameLen(pkt, start, 3)
	_, body, err := ParseDgram(pkt)
	if err != nil {
		t.Fatal(err)
	}
	f, rest, err := NextFrame(body)
	if err != nil {
		t.Fatal(err)
	}
	if string(f.Payload) != "xyz" || len(rest) != 0 {
		t.Fatalf("frame = %+v rest %d", f, len(rest))
	}
}

func TestTrainRoundTrip(t *testing.T) {
	a := AppendDgramHeader(nil, 1, 2)
	SetDgramAck(a, 9)
	b := AppendFrame(AppendDgramHeader(nil, 3, 4), 5, 6, 7, []byte("xyz"))
	train := AppendSection(AppendSection(nil, a), b)
	if train[0] != TrainVersion || len(train) != 1+2+len(a)+2+len(b) {
		t.Fatalf("train of %d bytes, version %d", len(train), train[0])
	}
	got, rest, err := NextSection(train[1:])
	if err != nil || !bytes.Equal(got, a) {
		t.Fatalf("first section = %x, %v; want %x", got, err, a)
	}
	got, rest, err = NextSection(rest)
	if err != nil || !bytes.Equal(got, b) || len(rest) != 0 {
		t.Fatalf("second section = %x, rest %d, %v; want %x", got, len(rest), err, b)
	}
}

func TestNextSectionRejectsCorruption(t *testing.T) {
	dgram := AppendDgramHeader(nil, 1, 2)
	good := AppendSection(nil, dgram)[1:]
	for name, body := range map[string][]byte{
		"one byte":          good[:1],
		"length past end":   good[:len(good)-1],
		"shorter than head": {0, DgramHeaderLen - 1, 2, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0},
	} {
		if _, _, err := NextSection(body); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
