// Package wire is the zero-allocation binary codec layer of the live
// lock service: a registry of hand-written encode/decode pairs for the
// algorithm protocol messages, plus the datagram framing the UDP
// transport packs them into (see dgram.go).
//
// The design mirrors the observability fast path of DESIGN.md §10: the
// reflection-based encoder (encoding/gob there, encoding/json here) is
// retained only as a differential-test oracle, while the hot path runs
// explicit append-style encoders that never allocate once the
// destination buffer has capacity. Each algorithm package registers its
// own message types from its wire.go with a stable 16-bit type ID, so
// the transport never names a protocol type and the algorithm cores
// never name a runtime — the same seam the gob registration kept, now
// without gob's per-message type descriptors, buffering and reflection.
//
// Type-ID allocation (stable across versions; never reuse a retired ID):
//
//	0x01xx  internal/lme1
//	0x02xx  internal/lme2
//	0x03xx  internal/baseline
//	0x7Fxx  tests and experiments
package wire

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand/v2"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"

	"lme/internal/core"
)

// Codec is one message type's registration: a stable wire ID and the
// explicit encode/decode pair. Append must write a self-delimiting or
// fixed-layout body (the transport length-prefixes the whole payload, so
// trailing-garbage detection is the decoder's job via Reader.Done).
type Codec struct {
	// ID is the stable 16-bit wire identifier, unique across the
	// program. Zero is reserved.
	ID uint16
	// Name labels the codec in errors and tooling ("lme1.fork").
	Name string
	// Proto is a prototype value of the concrete message type; the
	// registry keys Append dispatch on its dynamic type.
	Proto core.Message
	// Append encodes msg (guaranteed to be of Proto's type) onto buf.
	Append func(buf []byte, msg core.Message) []byte
	// Decode parses one message body (the bytes Append wrote).
	Decode func(b []byte) (core.Message, error)
	// Sample draws a pseudo-random instance for the differential and
	// property tests; optional but every shipped codec provides one.
	Sample func(rng *rand.Rand) core.Message
}

// registry is one immutable generation of the codec tables. Register
// publishes a new generation; the encode and decode paths load the
// current one without writing shared memory — a read lock's reader count
// is a cache line every core that encodes would otherwise fight over,
// four atomic writes per frame.
type registry struct {
	byID   map[uint16]*Codec
	byType map[reflect.Type]*Codec
}

var (
	regMu sync.Mutex // serialises Register
	reg   atomic.Pointer[registry]
)

func init() { reg.Store(&registry{}) }

// Register adds a codec to the global registry. It panics on a nil
// encode/decode pair, a zero or duplicate ID, or a duplicate concrete
// type — all programming errors that must fail at init, not on the wire.
func Register(c Codec) {
	if c.ID == 0 {
		panic("wire: Register: ID 0 is reserved")
	}
	if c.Append == nil || c.Decode == nil {
		panic(fmt.Sprintf("wire: Register(%s): nil Append or Decode", c.Name))
	}
	t := reflect.TypeOf(c.Proto)
	if t == nil {
		panic(fmt.Sprintf("wire: Register(%s): nil Proto", c.Name))
	}
	regMu.Lock()
	defer regMu.Unlock()
	old := reg.Load()
	if prev, ok := old.byID[c.ID]; ok {
		panic(fmt.Sprintf("wire: Register(%s): ID %#04x already used by %s", c.Name, c.ID, prev.Name))
	}
	if prev, ok := old.byType[t]; ok {
		panic(fmt.Sprintf("wire: Register(%s): type %v already registered as %s", c.Name, t, prev.Name))
	}
	next := &registry{
		byID:   make(map[uint16]*Codec, len(old.byID)+1),
		byType: make(map[reflect.Type]*Codec, len(old.byType)+1),
	}
	maps.Copy(next.byID, old.byID)
	maps.Copy(next.byType, old.byType)
	cc := c
	next.byID[c.ID] = &cc
	next.byType[t] = &cc
	reg.Store(next)
}

// UnregisteredError reports an Append of a message type no codec covers.
// The UDP transport turns it into a panic at Send — the failure must be
// loud at the sender, not a mystery drop at the peer.
type UnregisteredError struct {
	Type reflect.Type
}

func (e *UnregisteredError) Error() string {
	return fmt.Sprintf("wire: message type %v not registered (add a wire.Register to the algorithm's wire.go)", e.Type)
}

// AppendMessage encodes msg onto buf as [type ID uint16 BE][body] and
// returns the extended buffer. The buffer is returned unchanged alongside
// an *UnregisteredError when msg's type has no codec.
func AppendMessage(buf []byte, msg core.Message) ([]byte, error) {
	c := reg.Load().byType[reflect.TypeOf(msg)]
	if c == nil {
		return buf, &UnregisteredError{Type: reflect.TypeOf(msg)}
	}
	buf = binary.BigEndian.AppendUint16(buf, c.ID)
	return c.Append(buf, msg), nil
}

// DecodeMessage parses one AppendMessage-encoded payload.
func DecodeMessage(b []byte) (core.Message, error) {
	if len(b) < 2 {
		return nil, fmt.Errorf("wire: payload too short for a type ID (%d bytes)", len(b))
	}
	id := binary.BigEndian.Uint16(b)
	c := reg.Load().byID[id]
	if c == nil {
		return nil, fmt.Errorf("wire: unknown type ID %#04x", id)
	}
	return c.Decode(b[2:])
}

// Registered returns a copy of every codec, ID-ordered — the test
// surface the differential suite iterates.
func Registered() []Codec {
	byID := reg.Load().byID
	out := make([]Codec, 0, len(byID))
	for _, c := range byID {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Append helpers for the per-type encoders. Integers use varints (zigzag
// for signed) — protocol fields are small, so most encode in one byte.

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

// AppendVarint appends v as a zigzag varint.
func AppendVarint(buf []byte, v int64) []byte {
	return binary.AppendVarint(buf, v)
}

// AppendBool appends v as one byte (0 or 1).
func AppendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// Reader is the decode-side cursor: field reads latch the first error
// and Done reports it (or trailing garbage) once at the end, so per-type
// decoders stay straight-line.
type Reader struct {
	b   []byte
	bad bool
}

// NewReader wraps a message body.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Uvarint reads one unsigned varint (0 after an error).
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.bad = true
		r.b = nil
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Varint reads one zigzag varint (0 after an error).
func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.bad = true
		r.b = nil
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Bool reads one byte as a bool.
func (r *Reader) Bool() bool {
	if len(r.b) < 1 {
		r.bad = true
		return false
	}
	v := r.b[0] != 0
	r.b = r.b[1:]
	return v
}

// Done returns nil when every byte was consumed cleanly; a truncated or
// overlong body is a decode error (corruption, or a codec mismatch).
func (r *Reader) Done() error {
	if r.bad {
		return fmt.Errorf("wire: truncated message body")
	}
	if len(r.b) != 0 {
		return fmt.Errorf("wire: %d trailing bytes after message body", len(r.b))
	}
	return nil
}
