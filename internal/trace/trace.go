// Package trace is the typed observability layer of the simulator: a
// single event stream that the world (internal/manet) and the protocols
// publish to, replacing the free-text tracer the repo started with. Every
// observable occurrence — message send/deliver/drop, dining-state
// transitions, link changes, mobility, crashes, doorway crossings and
// recolouring rounds — becomes one Event value on a Bus. Consumers attach
// as subscribers (counters, renderers), as a bounded ring buffer (recent
// history for diagnostics) or as a JSONL sink (machine-readable traces for
// cmd/lmetrace and CI diffing).
//
// The bus is allocation-lean by design: an Event is a flat value struct,
// publishing copies it into a preallocated ring slot, subscriber dispatch
// indexes a per-kind slice built at Subscribe time, and the JSONL sink
// encodes with the hand-written AppendJSON into a reusable batch buffer
// (see encode.go) instead of reflection. A bus with no ring, no
// subscribers and no sink reduces Publish to a few branch tests, and
// Wants lets publishers skip even building events nobody consumes.
package trace

import (
	"encoding"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"lme/internal/core"
	"lme/internal/sim"
)

// Kind classifies an event.
type Kind uint8

// The event kinds of the schema. The string forms (see Kind.String) are
// the stable identifiers used in JSONL traces; the numeric values are
// internal and may be reordered.
const (
	// KindSend: Node handed a message for Peer to the transport.
	KindSend Kind = iota + 1
	// KindDeliver: Peer's message reached Node; Delay is the transit time.
	KindDeliver
	// KindDrop: a message in flight from Peer to Node was destroyed
	// (link failure or receiver crash before delivery).
	KindDrop
	// KindState: Node's dining state changed from Old to New.
	KindState
	// KindLinkUp: a link Node—Peer appeared; Detail names the moving side.
	KindLinkUp
	// KindLinkDown: the link Node—Peer disappeared.
	KindLinkDown
	// KindMoveStart / KindMoveStop: Node's mobility status flipped.
	KindMoveStart
	KindMoveStop
	// KindCrash: Node crash-failed.
	KindCrash
	// KindDoorway: Node began entering (New="enter"), crossed ("cross"),
	// exited ("exit") or aborted an entry in progress of ("abort") the
	// doorway named in Detail.
	KindDoorway
	// KindRecolor: Node finished a recolouring run; Detail carries the
	// new colour.
	KindRecolor
	// KindNote: free-form protocol diagnostic (Detail).
	KindNote

	numKinds
)

var kindNames = [numKinds]string{
	KindSend:      "send",
	KindDeliver:   "deliver",
	KindDrop:      "drop",
	KindState:     "state",
	KindLinkUp:    "link-up",
	KindLinkDown:  "link-down",
	KindMoveStart: "move-start",
	KindMoveStop:  "move-stop",
	KindCrash:     "crash",
	KindDoorway:   "doorway",
	KindRecolor:   "recolor",
	KindNote:      "note",
}

// String returns the schema-stable name of the kind.
func (k Kind) String() string {
	if k > 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalText implements encoding.TextMarshaler; JSON encodes kinds by
// name.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (k *Kind) UnmarshalText(b []byte) error {
	s := string(b)
	for i := Kind(1); i < numKinds; i++ {
		if kindNames[i] == s {
			*k = i
			return nil
		}
	}
	return fmt.Errorf("trace: unknown event kind %q", s)
}

var (
	_ encoding.TextMarshaler   = Kind(0)
	_ encoding.TextUnmarshaler = (*Kind)(nil)
)

// Kinds lists every valid kind in schema order.
func Kinds() []Kind {
	out := make([]Kind, 0, numKinds-1)
	for k := Kind(1); k < numKinds; k++ {
		out = append(out, k)
	}
	return out
}

// NoNode marks an unused Node/Peer field.
const NoNode core.NodeID = -1

// Event is one occurrence on the stream. It is a flat value: publishing
// and storing events never allocates. Unused fields hold their zero value
// (Peer: NoNode), and the JSON encoding omits them, so each kind has a
// stable, minimal JSONL shape.
type Event struct {
	// Seq is the bus-assigned publication number (1-based).
	Seq uint64 `json:"seq"`
	// At is the virtual time of the event in microseconds.
	At sim.Time `json:"at"`
	// Kind classifies the event; it determines which fields are set.
	Kind Kind `json:"kind"`
	// Node is the primary node (sender for send, receiver for
	// deliver/drop, endpoint a for link events).
	Node core.NodeID `json:"node"`
	// Peer is the secondary node, or NoNode.
	Peer core.NodeID `json:"peer,omitempty"`
	// Msg is the normalised message type name (send/deliver/drop).
	Msg string `json:"msg,omitempty"`
	// MsgID is the dense TypeNamer ID behind Msg, or 0 when the event
	// carries no message. It is in-process routing state for counters —
	// never part of the wire format.
	MsgID MsgType `json:"-"`
	// Size is the in-memory payload size in bytes (send/deliver/drop).
	Size int `json:"size,omitempty"`
	// MsgSeq is the sender's monotone per-node message sequence number
	// (1-based), stamped on send and carried through deliver/drop, so a
	// causal consumer can name the exact message that closed a wait.
	MsgSeq uint64 `json:"mseq,omitempty"`
	// Delay is the transit time of a delivered message.
	Delay sim.Time `json:"delay,omitempty"`
	// Old and New are state names for KindState ("thinking", "hungry",
	// "eating") and the action for KindDoorway ("cross"/"exit" in New).
	Old string `json:"old,omitempty"`
	New string `json:"new,omitempty"`
	// Detail carries kind-specific extra context (moving side, doorway
	// name, colour, free-form notes).
	Detail string `json:"detail,omitempty"`
}

// MarshalJSON hides the NoNode sentinel: a Peer of NoNode is encoded as
// the field's absence, matching omitempty's treatment of the other
// optional fields. It delegates to the hand-written AppendJSON;
// encoding/json survives only as the oracle of the differential tests.
func (e Event) MarshalJSON() ([]byte, error) {
	return e.AppendJSON(make([]byte, 0, 160)), nil
}

// UnmarshalJSON restores the NoNode sentinel for an absent peer field.
func (e *Event) UnmarshalJSON(b []byte) error {
	type wire Event
	w := struct {
		wire
		Peer *core.NodeID `json:"peer"`
	}{}
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*e = Event(w.wire)
	if w.Peer == nil {
		e.Peer = NoNode
	} else {
		e.Peer = *w.Peer
	}
	return nil
}

// String renders the event as the human-readable trace line the -trace
// flag prints.
func (e Event) String() string {
	switch e.Kind {
	case KindSend:
		return fmt.Sprintf("send %d→%d %s (%dB)", e.Node, e.Peer, e.Msg, e.Size)
	case KindDeliver:
		return fmt.Sprintf("deliver %d→%d %s (delay %v)", e.Peer, e.Node, e.Msg, e.Delay)
	case KindDrop:
		return fmt.Sprintf("drop %d→%d %s (%s)", e.Peer, e.Node, e.Msg, e.Detail)
	case KindState:
		return fmt.Sprintf("node %d: %s → %s", e.Node, e.Old, e.New)
	case KindLinkUp:
		return fmt.Sprintf("link up %d—%d (moving side %s)", e.Node, e.Peer, e.Detail)
	case KindLinkDown:
		return fmt.Sprintf("link down %d—%d", e.Node, e.Peer)
	case KindMoveStart:
		return fmt.Sprintf("node %d starts moving %s", e.Node, e.Detail)
	case KindMoveStop:
		return fmt.Sprintf("node %d static again %s", e.Node, e.Detail)
	case KindCrash:
		return fmt.Sprintf("node %d crashed", e.Node)
	case KindDoorway:
		return fmt.Sprintf("node %d doorway %s %s", e.Node, e.Detail, e.New)
	case KindRecolor:
		return fmt.Sprintf("node %d recoloured to %s", e.Node, e.Detail)
	case KindNote:
		return fmt.Sprintf("node %d: %s", e.Node, e.Detail)
	default:
		return fmt.Sprintf("event kind(%d) node %d", uint8(e.Kind), e.Node)
	}
}

// Emitter is the optional extension a runtime's core.Env may implement to
// give protocols access to the event stream. Protocols type-assert for it
// in Init and stay silent when the runtime (e.g. internal/livenet) does
// not provide one.
//
// Emitters must fill the Peer field explicitly: NoNode when the event has
// no peer, the peer's ID otherwise. The runtime passes Peer through
// verbatim — there is no zero-value rewrite, so an event genuinely about
// node 0 keeps Peer 0 (an emitter that leaves Peer at its zero value is
// therefore publishing "peer 0", not "no peer").
type Emitter interface {
	Emit(Event)
}

// Interest is the optional companion of Emitter that exposes the bus's
// per-kind interest mask. Protocols type-assert for it next to Emitter
// and skip the fmt work of building an event when Wants says nobody
// would see it; emitting regardless stays correct, just slower.
type Interest interface {
	Wants(Kind) bool
}

// sinkFlushBytes is the batch threshold of the JSONL sink: encoded
// events accumulate in a scratch buffer and reach the writer in chunks
// of roughly this size (plus whatever an explicit Flush drains).
const sinkFlushBytes = 32 << 10

// Bus is the event stream: a bounded ring of recent events, kind-indexed
// subscriber lists, and an optional batched JSONL sink. It is not safe
// for concurrent use — like the scheduler it belongs to the simulation's
// single thread of control.
type Bus struct {
	ring  []Event
	total uint64

	// subs[k] lists the consumers of kind k in subscription order;
	// subscribers registered for every kind appear in each list. Slot 0
	// serves events whose kind is out of schema range — only the
	// every-kind subscribers see those. Publish dispatches with one
	// index instead of scanning a filter per subscriber.
	subs  [numKinds][]func(*Event)
	nsubs int

	// held is the stack of records Publish hands its subscribers, one per
	// nesting level of Publish (a subscriber may publish), so the
	// caller's event never escapes to the heap.
	held  []Event
	depth int

	// overwritten counts ring slots recycled before anyone read them;
	// sinkDropped counts events the JSONL sink failed to record (every
	// event of a batch whose write failed, plus everything skipped after
	// the sticky error). Both were silent losses before they were counted.
	overwritten uint64
	sinkDropped uint64

	// The JSONL sink: events are encoded with AppendJSON into sinkBuf
	// and written in sinkFlushBytes batches. sinkPending counts the
	// events buffered but not yet written, so a failed batch write can
	// account for every event it lost.
	sinkW       io.Writer
	sinkBuf     []byte
	sinkPending uint64
	sinkErr     error
}

// NewBus creates a bus that retains the last ringCap events (0 disables
// retention; publishing still reaches subscribers and the sink).
func NewBus(ringCap int) *Bus {
	b := &Bus{}
	if ringCap > 0 {
		b.ring = make([]Event, ringCap)
	}
	return b
}

// Subscribe registers fn for the given kinds (none = every kind). A kind
// repeated in the list still delivers each event once. fn reads the event
// during the call: it must not modify *e, because every subscriber of the
// event reads the same record, and must not retain the pointer, because
// the record is the bus's and the next Publish reuses it.
func (b *Bus) Subscribe(fn func(*Event), kinds ...Kind) {
	b.nsubs++
	if len(kinds) == 0 {
		for k := range b.subs {
			b.subs[k] = append(b.subs[k], fn)
		}
		return
	}
	var seen [numKinds]bool
	for _, k := range kinds {
		if k > 0 && k < numKinds && !seen[k] {
			seen[k] = true
			b.subs[k] = append(b.subs[k], fn)
		}
	}
}

// SetSink attaches a JSONL writer: every subsequent event is encoded as
// one JSON object per line, buffered, and written in batches — call
// Flush (or SetSink again) to drain the tail. A nil writer detaches the
// sink; anything still buffered is flushed to the old writer first.
// Write errors are sticky; check SinkErr (or Flush's result) after the
// run.
func (b *Bus) SetSink(w io.Writer) {
	b.flushSink()
	b.sinkW = w
	if w != nil && cap(b.sinkBuf) == 0 {
		b.sinkBuf = make([]byte, 0, sinkFlushBytes+4096)
	}
}

// SinkErr reports the first error the JSONL sink encountered, if any.
func (b *Bus) SinkErr() error { return b.sinkErr }

// Flush writes any batched sink output to the writer and reports the
// sticky sink error, so one `if err := bus.Flush(); err != nil` covers
// both the final batch and any earlier failure. A bus without a sink
// flushes to nothing and reports nil.
func (b *Bus) Flush() error {
	b.flushSink()
	return b.sinkErr
}

// flushSink drains the batch buffer. A short write counts as an error
// (io.ErrShortWrite); on any error the whole pending batch is recorded
// as dropped, since none of its lines can be trusted to have reached
// stable storage in full.
func (b *Bus) flushSink() {
	if len(b.sinkBuf) == 0 {
		return
	}
	n, err := b.sinkW.Write(b.sinkBuf)
	if err == nil && n < len(b.sinkBuf) {
		err = io.ErrShortWrite
	}
	if err != nil {
		b.sinkErr = err
		b.sinkDropped += b.sinkPending
	}
	b.sinkBuf = b.sinkBuf[:0]
	b.sinkPending = 0
}

// Publish assigns the event its sequence number (in *e too) and fans it
// out to the ring, the subscribers of its kind and the sink. It does not
// retain e: the ring keeps a copy, and subscribers read one more copy
// that the bus owns, so a caller may publish a record on its stack
// without it escaping.
func (b *Bus) Publish(e *Event) {
	b.total++
	e.Seq = b.total
	if b.ring != nil {
		if b.total > uint64(len(b.ring)) {
			b.overwritten++
		}
		b.ring[int((b.total-1)%uint64(len(b.ring)))] = *e
	}
	k := e.Kind
	if k >= numKinds {
		k = 0 // out-of-range kinds reach only the every-kind subscribers
	}
	if subs := b.subs[k]; len(subs) > 0 {
		if b.depth == len(b.held) {
			b.held = append(b.held, Event{})
		}
		held := &b.held[b.depth]
		b.depth++
		*held = *e
		for _, fn := range subs {
			fn(held)
		}
		b.depth--
	}
	if b.sinkW != nil {
		if b.sinkErr != nil {
			b.sinkDropped++
			return
		}
		b.sinkBuf = e.AppendJSON(b.sinkBuf)
		b.sinkBuf = append(b.sinkBuf, '\n')
		b.sinkPending++
		if len(b.sinkBuf) >= sinkFlushBytes {
			b.flushSink()
		}
	}
}

// Total reports how many events have been published.
func (b *Bus) Total() uint64 { return b.total }

// Overwritten reports how many retained events the ring has recycled:
// history older than the last ringCap events is gone. Zero on a bus
// without a ring.
func (b *Bus) Overwritten() uint64 { return b.overwritten }

// SinkDropped reports how many events the JSONL sink lost — the batch
// whose write raised SinkErr and every event published after it.
func (b *Bus) SinkDropped() uint64 { return b.sinkDropped }

// Active reports whether anything observes the stream; publishers may use
// it to skip building events whose construction is not free.
func (b *Bus) Active() bool {
	return b.ring != nil || b.nsubs > 0 || b.sinkW != nil
}

// Wants reports whether an event of kind k would reach any consumer —
// the ring and the sink take every kind, subscribers only theirs.
// Publishers use it to skip assembling the string-bearing events
// (fmt-formatted details) nobody would see; publishing regardless stays
// correct.
func (b *Bus) Wants(k Kind) bool {
	if b.ring != nil || b.sinkW != nil {
		return true
	}
	if k >= numKinds {
		k = 0
	}
	return len(b.subs[k]) > 0
}

// Recent returns up to n of the most recent retained events, oldest
// first.
func (b *Bus) Recent(n int) []Event {
	if b.ring == nil || b.total == 0 || n <= 0 {
		return nil
	}
	cap64 := uint64(len(b.ring))
	have := b.total
	if have > cap64 {
		have = cap64
	}
	if uint64(n) < have {
		have = uint64(n)
	}
	out := make([]Event, 0, have)
	for i := b.total - have; i < b.total; i++ {
		out = append(out, b.ring[int(i%cap64)])
	}
	return out
}

// MsgType is the dense per-world ID of a message payload type, minted by
// TypeNamer in first-seen order (1-based; 0 means "no message"). Dense
// IDs let per-type counters index a slice on the hot path instead of
// concatenating strings and probing a map per event.
type MsgType uint32

// TypeNamer caches the normalised name, shallow byte size and dense ID
// of message payload types, so per-message classification costs a short
// scan instead of reflection. A protocol has a handful of message types,
// so the cache is two parallel slices, not a map: comparing a few type
// words beats hashing one, and the simulator classifies every observed
// message twice, at its send and at its delivery. The cache is
// copy-on-write: the warm path (every type already seen — reached within
// the first events of a run) is one atomic load plus a scan of an
// immutable snapshot, so concurrent readers — the sharded engine
// classifies messages from tile workers — pay no lock; a miss copies the
// snapshot under a mutex.
type TypeNamer struct {
	snap atomic.Pointer[namerSnap]
	mu   sync.Mutex // serialises snapshot replacement on cache misses
}

// namerSnap is one immutable cache generation; misses replace it
// wholesale, never mutate it.
type namerSnap struct {
	types []reflect.Type // in first-seen order
	infos []typeInfo     // infos[i] describes types[i]
	byID  []string       // byID[id-1] is the normalised name behind MsgType id
}

// find returns the cached description of t, if any.
func (s *namerSnap) find(t reflect.Type) (typeInfo, bool) {
	for i, u := range s.types {
		if u == t {
			return s.infos[i], true
		}
	}
	return typeInfo{}, false
}

type typeInfo struct {
	name string
	size int
	id   MsgType
}

// NewTypeNamer returns an empty cache.
func NewTypeNamer() *TypeNamer {
	tn := &TypeNamer{}
	tn.snap.Store(&namerSnap{})
	return tn
}

// Name returns the normalised type name and in-memory size of msg.
func (tn *TypeNamer) Name(msg any) (string, int) {
	info := tn.info(msg)
	return info.name, info.size
}

// Info is Name plus the dense MsgType ID minted for the normalised name.
// Distinct Go types that normalise to the same name (e.g. "lme1.msgFork"
// and "baseline.cmFork") share one ID, so ID and name stay bijective.
func (tn *TypeNamer) Info(msg any) (name string, size int, id MsgType) {
	info := tn.info(msg)
	return info.name, info.size, info.id
}

func (tn *TypeNamer) info(msg any) typeInfo {
	t := reflect.TypeOf(msg)
	if info, ok := tn.snap.Load().find(t); ok {
		return info
	}
	tn.mu.Lock()
	defer tn.mu.Unlock()
	// Re-check against the latest snapshot: another goroutine may have
	// published this type while we waited for the lock.
	cur := tn.snap.Load()
	if info, ok := cur.find(t); ok {
		return info
	}
	info := typeInfo{name: NormalizeTypeName(fmt.Sprintf("%T", msg)), size: int(t.Size())}
	for i, n := range cur.byID {
		if n == info.name {
			info.id = MsgType(i + 1)
			break
		}
	}
	next := &namerSnap{byID: cur.byID}
	if info.id == 0 {
		next.byID = append(slices.Clip(cur.byID), info.name)
		info.id = MsgType(len(next.byID))
	}
	next.types = append(slices.Clip(cur.types), t)
	next.infos = append(slices.Clip(cur.infos), info)
	tn.snap.Store(next)
	return info
}

// TypeName returns the normalised name behind a minted ID, or "" for 0
// and IDs never minted.
func (tn *TypeNamer) TypeName(id MsgType) string {
	byID := tn.snap.Load().byID
	if id == 0 || int(id) > len(byID) {
		return ""
	}
	return byID[id-1]
}

// NumTypes reports how many distinct message-type IDs have been minted;
// valid IDs are 1..NumTypes.
func (tn *TypeNamer) NumTypes() int { return len(tn.snap.Load().byID) }

// NormalizeTypeName reduces a Go type name to the schema's message-type
// identifier: package path and pointer markers stripped, the conventional
// "msg"/"cm" prefixes removed, lower-cased. "lme1.msgFork" and
// "baseline.cmFork" both become "fork".
func NormalizeTypeName(name string) string {
	name = strings.TrimPrefix(name, "*")
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		name = name[i+1:]
	}
	name = strings.TrimPrefix(name, "msg")
	name = strings.TrimPrefix(name, "cm")
	return strings.ToLower(name)
}
