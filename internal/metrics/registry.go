package metrics

import (
	"fmt"
	"sort"
	"strings"

	"lme/internal/core"
	"lme/internal/sim"
	"lme/internal/trace"
)

// msgClass indexes the dense per-message-type tables: one counter slice
// per traffic direction, addressed by the TypeNamer's MsgType ID.
type msgClass int

const (
	classSent msgClass = iota
	classDelivered
	classDropped
	numClasses
)

// classPrefix maps each class to the string-counter prefix its dense
// counts fold into.
var classPrefix = [numClasses]string{
	classSent:      PrefixSent,
	classDelivered: PrefixDelivered,
	classDropped:   PrefixDropped,
}

// fastCounters are the fixed counters Instrument bumps on every event.
// They live as plain fields so the hot path is one add, no map probe;
// fold() drains them into the string map before any read.
type fastCounters struct {
	sent, delivered, dropped uint64
	bytesSent                uint64
	csEntries                uint64
	linkUps, linkDowns       uint64
	moves, crashes, recolors uint64
}

// Registry is the per-run counter and histogram store behind the
// machine-readable telemetry: per-message-type traffic counts, the
// link-delay histogram that validates the ν bound, and whatever a
// consumer adds. Like the bus it belongs to the simulation's single
// thread; snapshot after the run.
//
// The counters Instrument maintains take a dense fast path — fixed
// fields plus per-message-type slices indexed by the world's TypeNamer
// ID — and are folded into the string map lazily, so every read API
// (Counter, CountersWithPrefix, Snapshot) reports exactly the names and
// values the per-event map updates used to produce.
type Registry struct {
	counters map[string]uint64
	hists    map[string]*Histogram
	sketches map[string]*Sketch

	fast   fastCounters
	namer  *trace.TypeNamer
	byType [numClasses][]uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]uint64),
		hists:    make(map[string]*Histogram),
		sketches: make(map[string]*Sketch),
	}
}

// Add increments the named counter by n, creating it at zero first.
func (r *Registry) Add(name string, n uint64) { r.counters[name] += n }

// Inc increments the named counter by one.
func (r *Registry) Inc(name string) { r.counters[name]++ }

// Counter reads the named counter (0 if never written).
func (r *Registry) Counter(name string) uint64 {
	r.fold()
	return r.counters[name]
}

// incMsg bumps the per-message-type counter for one traffic event:
// slice-indexed when the event carries a minted MsgID and a namer is
// attached, string-keyed otherwise (events from emitters that never
// touch the TypeNamer).
func (r *Registry) incMsg(class msgClass, e *trace.Event) {
	if e.MsgID == 0 || r.namer == nil {
		r.counters[classPrefix[class]+e.Msg]++
		return
	}
	t := &r.byType[class]
	for int(e.MsgID) > len(*t) {
		*t = append(*t, 0)
	}
	(*t)[e.MsgID-1]++
}

// fold drains the dense fast-path counters into the string map. Reads
// call it first, so the map view is always complete; counters that never
// fired stay absent, exactly as with per-event map updates.
func (r *Registry) fold() {
	f := &r.fast
	drain := func(name string, v *uint64) {
		if *v != 0 {
			r.counters[name] += *v
			*v = 0
		}
	}
	drain(CtrSent, &f.sent)
	drain(CtrDelivered, &f.delivered)
	drain(CtrDropped, &f.dropped)
	drain(CtrBytesSent, &f.bytesSent)
	drain(CtrCSEntries, &f.csEntries)
	drain(CtrLinkUps, &f.linkUps)
	drain(CtrLinkDowns, &f.linkDowns)
	drain(CtrMoves, &f.moves)
	drain(CtrCrashes, &f.crashes)
	drain(CtrRecolorRns, &f.recolors)
	if r.namer == nil {
		return
	}
	for class := range r.byType {
		counts := r.byType[class]
		for i, n := range counts {
			if n != 0 {
				r.counters[classPrefix[class]+r.namer.TypeName(trace.MsgType(i+1))] += n
				counts[i] = 0
			}
		}
	}
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use. Bounds passed on later calls are ignored.
func (r *Registry) Histogram(name string, bounds []sim.Time) *Histogram {
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := NewHistogram(bounds)
	r.hists[name] = h
	return h
}

// Sketch returns the named quantile sketch, creating it (DefaultGamma)
// on first use. Sketches complement the fixed-bucket histograms with
// α-accurate quantiles at O(log range) memory.
func (r *Registry) Sketch(name string) *Sketch {
	if s, ok := r.sketches[name]; ok {
		return s
	}
	s := NewSketch()
	r.sketches[name] = s
	return s
}

// CountersWithPrefix returns the counters whose name starts with prefix,
// keyed by the remainder of the name. Used to regroup the per-type
// message counters ("sent.req" → "req").
func (r *Registry) CountersWithPrefix(prefix string) map[string]uint64 {
	r.fold()
	out := make(map[string]uint64)
	for name, v := range r.counters {
		if rest, ok := strings.CutPrefix(name, prefix); ok {
			out[rest] = v
		}
	}
	return out
}

// Snapshot captures the registry as a JSON-marshalable value.
func (r *Registry) Snapshot() RegistrySnapshot {
	r.fold()
	s := RegistrySnapshot{
		Counters:   make(map[string]uint64, len(r.counters)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for k, v := range r.counters {
		s.Counters[k] = v
	}
	for k, h := range r.hists {
		s.Histograms[k] = h.Snapshot()
	}
	if len(r.sketches) > 0 {
		s.Sketches = make(map[string]SketchSnapshot, len(r.sketches))
		for k, sk := range r.sketches {
			s.Sketches[k] = sk.Snapshot()
		}
	}
	return s
}

// RegistrySnapshot is the frozen, serialisable form of a Registry.
type RegistrySnapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Sketches   map[string]SketchSnapshot    `json:"sketches,omitempty"`
}

// String renders the snapshot as sorted "name value" lines (the -stats
// output).
func (s RegistrySnapshot) String() string {
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%-32s %d\n", name, s.Counters[name])
	}
	hnames := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		fmt.Fprintf(&b, "%-32s %s\n", name, s.Histograms[name])
	}
	return b.String()
}

// Histogram accumulates sim.Time observations into fixed buckets with
// exact count/sum/min/max. Bucket i counts observations ≤ Bounds[i]; one
// implicit overflow bucket counts the rest.
type Histogram struct {
	bounds []sim.Time
	counts []uint64

	count    uint64
	sum      sim.Time
	min, max sim.Time
}

// NewHistogram creates a histogram over the given ascending bounds.
func NewHistogram(bounds []sim.Time) *Histogram {
	b := make([]sim.Time, len(bounds))
	copy(b, bounds)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v sim.Time) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Snapshot freezes the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]sim.Time(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		Count:  h.count,
		Sum:    h.sum,
		Min:    h.min,
		Max:    h.max,
	}
	if h.count > 0 {
		s.Mean = h.sum / sim.Time(h.count)
	}
	return s
}

// HistogramSnapshot is the frozen, serialisable form of a Histogram.
// Counts has one more entry than Bounds: the overflow bucket.
type HistogramSnapshot struct {
	Bounds []sim.Time `json:"bounds_us"`
	Counts []uint64   `json:"counts"`
	Count  uint64     `json:"count"`
	Sum    sim.Time   `json:"sum_us"`
	Mean   sim.Time   `json:"mean_us"`
	Min    sim.Time   `json:"min_us"`
	Max    sim.Time   `json:"max_us"`
}

// String renders the snapshot compactly.
func (s HistogramSnapshot) String() string {
	return fmt.Sprintf("n=%d mean=%v min=%v max=%v", s.Count, s.Mean, s.Min, s.Max)
}

// Overflow reports how many observations exceeded the last bound.
func (s HistogramSnapshot) Overflow() uint64 {
	if len(s.Counts) == 0 {
		return 0
	}
	return s.Counts[len(s.Counts)-1]
}

// The counter names Instrument maintains. Per-message-type counters are
// the prefix plus the normalised type name ("sent.req", "delivered.fork",
// "dropped.notification").
const (
	CtrSent       = "msg_sent"
	CtrDelivered  = "msg_delivered"
	CtrDropped    = "msg_dropped"
	CtrBytesSent  = "bytes_sent"
	CtrCSEntries  = "cs_entries"
	CtrLinkUps    = "link_up"
	CtrLinkDowns  = "link_down"
	CtrMoves      = "moves"
	CtrCrashes    = "crashes"
	CtrRecolorRns = "recolor_runs"

	PrefixSent      = "sent."
	PrefixDelivered = "delivered."
	PrefixDropped   = "dropped."

	// HistLinkDelay is the end-to-end delivery-delay histogram; its
	// maximum empirically validates the ν bound of §3.1.
	HistLinkDelay = "link_delay_us"
)

// DefaultDelayBounds buckets delivery delays in 1ms steps up to the
// default ν of 10ms; anything beyond lands in the overflow bucket (and
// would indicate a transport bug).
func DefaultDelayBounds() []sim.Time {
	bounds := make([]sim.Time, 10)
	for i := range bounds {
		bounds[i] = sim.Time((i + 1) * 1_000)
	}
	return bounds
}

// Instrument subscribes the registry to the bus: every published event
// updates the appropriate counters, giving each run per-message-type
// accounting and the link-delay histogram without the world knowing about
// the registry. The namer is the world's TypeNamer — the mint of the
// MsgID values traffic events carry; it routes per-type counts to the
// dense tables. A nil namer falls back to string-keyed counting.
func Instrument(bus *trace.Bus, r *Registry, namer *trace.TypeNamer) {
	r.namer = namer
	delays := r.Histogram(HistLinkDelay, DefaultDelayBounds())
	delaySketch := r.Sketch(HistLinkDelay)
	eating := core.Eating.String()
	bus.Subscribe(func(e *trace.Event) {
		switch e.Kind {
		case trace.KindSend:
			r.fast.sent++
			r.fast.bytesSent += uint64(e.Size)
			r.incMsg(classSent, e)
		case trace.KindDeliver:
			r.fast.delivered++
			r.incMsg(classDelivered, e)
			delays.Observe(e.Delay)
			delaySketch.Observe(e.Delay)
		case trace.KindDrop:
			r.fast.dropped++
			r.incMsg(classDropped, e)
		case trace.KindState:
			if e.New == eating {
				r.fast.csEntries++
			}
		case trace.KindLinkUp:
			r.fast.linkUps++
		case trace.KindLinkDown:
			r.fast.linkDowns++
		case trace.KindMoveStart:
			r.fast.moves++
		case trace.KindCrash:
			r.fast.crashes++
		case trace.KindRecolor:
			r.fast.recolors++
		}
	}, trace.KindSend, trace.KindDeliver, trace.KindDrop, trace.KindState,
		trace.KindLinkUp, trace.KindLinkDown, trace.KindMoveStart,
		trace.KindCrash, trace.KindRecolor)
}

// PerMeal divides total messages by critical-section entries; the paper's
// natural message-complexity measure. Returns 0 when no meal completed.
func PerMeal(msgs uint64, meals int) float64 {
	if meals <= 0 {
		return 0
	}
	return float64(msgs) / float64(meals)
}
