package bench

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"lme/internal/core"
	"lme/internal/graph"
	"lme/internal/livenet"
	"lme/internal/lme2"
	"lme/internal/metrics"
	"lme/internal/telemetry"
)

// liveSpec pins one live workload: alg2 on a ring behind the lease API,
// one closed-loop client goroutine per node (the lease API is cap-1 per
// node), bounded-Pareto think times, traffic over the host loopback.
type liveSpec struct {
	name string
	n    int
	udp  bool
	// thinkMin is the Pareto scale x_m, thinkMax the cap; α is 1.5.
	thinkMin, thinkMax time.Duration
}

const (
	liveHold     = 300 * time.Microsecond
	liveAlpha    = 1.5
	liveWarmup   = 2 * time.Second
	liveChannelV = 500 * time.Microsecond // ν of the channel transport
	// liveLeaseTTL is far above the hold time: the TTL timer stays on the
	// lease path, but a client descheduled on a saturated box does not
	// expire, so no operation fails by design.
	liveLeaseTTL = 2 * time.Second
	// setupProbes is how many extra construct-start-stop cycles a pass
	// times for setup_s (see setupTime); a cycle costs a few milliseconds.
	setupProbes = 16
	// refSeconds is the untraced reference window a traced pass runs
	// first, the numerator of bench.trace_overhead_x.
	refSeconds = 3
)

var liveSpecs = map[string]liveSpec{
	"live_udp_sat":  {name: "live_udp_sat", n: 256, udp: true, thinkMin: 200 * time.Microsecond, thinkMax: 50 * time.Millisecond},
	"live_chan_sat": {name: "live_chan_sat", n: 256, udp: false, thinkMin: 200 * time.Microsecond, thinkMax: 50 * time.Millisecond},
	// 128 nodes, not fewer: at ring(64) the two cores idle long enough that
	// the VM's wake-up latency flips between two regimes from run to run
	// (grant p50 0.75 ms or 1.4 ms on the same seed); at 128 the cores are
	// half busy and it stays in the fast one.
	"live_udp_sparse": {name: "live_udp_sparse", n: 128, udp: true, thinkMin: 5 * time.Millisecond, thinkMax: 100 * time.Millisecond},
}

// holders is the benchmark's own mutual-exclusion check, independent of
// the cluster's safety checker: a client raises its node's flag after
// Acquire returns and lowers it before calling Release, and on raising
// looks at its ring neighbours. Two neighbouring clients that hold leases
// at once both have their flags up at some instant, and the later of the
// two to raise sees the other's.
type holders struct {
	flags    []atomic.Bool
	overlaps atomic.Int64
}

func newHolders(n int) *holders { return &holders{flags: make([]atomic.Bool, n)} }

func (h *holders) enter(id int) {
	n := len(h.flags)
	h.flags[id].Store(true)
	if h.flags[(id+1)%n].Load() || h.flags[(id+n-1)%n].Load() {
		h.overlaps.Add(1)
	}
}

func (h *holders) exit(id int) { h.flags[id].Store(false) }

// paretoThink draws a bounded-Pareto think time x_m·U^(−1/α), capped.
func paretoThink(rng *rand.Rand, s liveSpec) time.Duration {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	d := time.Duration(float64(s.thinkMin) * math.Pow(u, -1/liveAlpha))
	if d > s.thinkMax || d < 0 {
		d = s.thinkMax
	}
	return d
}

// liveCluster is one constructed and started cluster.
type liveCluster struct {
	c      *livenet.Cluster
	decor  *transportDecor // nil when untraced
	startS float64         // construction → ready
	goBase int             // goroutines before construction
}

// startLive builds protocols, transport and cluster and starts them; the
// elapsed time is the set-up cost. A tracer decorates every protocol and
// the transport.
func startLive(s liveSpec, seed uint64, t *tracer) (*liveCluster, error) {
	goBase := runtime.NumGoroutine()
	begin := time.Now()
	g := graph.Ring(s.n)
	protos := make([]core.Protocol, s.n)
	for i := range protos {
		protos[i] = lme2.New()
		if t != nil {
			protos[i] = t.wrapProtocol(core.NodeID(i), protos[i])
		}
	}
	var tr livenet.Transport
	if s.udp {
		u, err := livenet.NewUDPTransport(g, 0)
		if err != nil {
			return nil, err
		}
		tr = u
	} else {
		tr = livenet.NewChannelTransport(g, liveChannelV, seed)
	}
	lc := &liveCluster{goBase: goBase}
	if t != nil {
		lc.decor = t.wrapTransport(tr, g)
		tr = lc.decor
	}
	c, err := livenet.New(livenet.Config{Transport: tr, Seed: seed, LeaseTTL: liveLeaseTTL}, g, protos)
	if err != nil {
		tr.Close() //nolint:errcheck // already failing
		return nil, err
	}
	if err := c.Start(); err != nil {
		tr.Close() //nolint:errcheck // already failing
		return nil, err
	}
	lc.c, lc.startS = c, time.Since(begin).Seconds()
	return lc, nil
}

// stop shuts the cluster down and returns how long that took.
func (lc *liveCluster) stop() float64 {
	begin := time.Now()
	lc.c.Stop() //nolint:errcheck // the verdict is read through Violations
	return time.Since(begin).Seconds()
}

// clientLog is what one client goroutine recorded inside the measured
// window. Only that goroutine writes it; the pass reads it after joining.
type clientLog struct {
	grantNs   []int64 // Acquire call → return, exact
	grantAt   []int32 // when each grant fell, in ms since the window opened
	releaseNs logHist
	errs      int64 // Acquire errors before the deadline
	expired   int64 // Release reported ErrLeaseExpired
}

// window is one warm-up + measured window driven against a cluster.
type window struct {
	spec    liveSpec
	lc      *liveCluster
	t       *tracer
	seconds int
	warm    time.Duration
	seed    uint64
	hold    *holders
	logs    []clientLog

	// Counter deltas over the measured window.
	wallS, cpuS    float64
	msgs           uint64
	stats          telemetry.TransportStats // end − start for the counters used
	goroutines     int
	heapPerNode    float64
	rt             rtDelta
	expiredCluster uint64
}

// transportStats reads the cluster's wire counters (zero value for a
// transport without any).
func (lc *liveCluster) transportStats() telemetry.TransportStats {
	if ts := lc.c.TransportStats(); ts != nil {
		return *ts
	}
	return telemetry.TransportStats{}
}

// run drives the clients through warm-up and the measured window, takes
// the process and cluster counters at both edges of the window, and
// joins the clients. The cluster is left running for the caller to stop.
func (w *window) run(heapBase uint64) {
	n := w.spec.n
	begin := now()
	winStart := begin + int64(w.warm)
	winEnd := winStart + int64(w.seconds)*int64(time.Second)
	ctx, cancel := context.WithCancel(context.Background())

	var clients sync.WaitGroup
	for i := 0; i < n; i++ {
		clients.Add(1)
		go func(id int) {
			defer clients.Done()
			w.client(ctx, id, winStart, winEnd)
		}(i)
	}

	time.Sleep(time.Duration(winStart - now()))
	var probe *rtProbe
	if w.t != nil {
		w.t.measuring.Store(true)
		probe = startRuntimeProbe()
	}
	t0, cpu0 := now(), cpuSeconds()
	msgs0, ts0, exp0 := w.lc.c.MessagesSent(), w.lc.transportStats(), w.lc.c.ExpiredLeases()

	time.Sleep(time.Duration(winEnd-now()) / 2)
	// Mid-window: every cluster goroutine is up. The clients and the
	// runtime probe's sampler are the benchmark's own.
	w.goroutines = runtime.NumGoroutine() - w.lc.goBase - n
	if probe != nil {
		w.goroutines--
	}
	time.Sleep(time.Duration(winEnd - now()))

	t1, cpu1 := now(), cpuSeconds()
	msgs1, ts1, exp1 := w.lc.c.MessagesSent(), w.lc.transportStats(), w.lc.c.ExpiredLeases()
	if w.t != nil {
		w.t.measuring.Store(false)
		w.rt = probe.stop()
	}
	cancel()
	clients.Wait()

	w.wallS, w.cpuS = float64(t1-t0)/1e9, cpu1-cpu0
	w.msgs, w.expiredCluster = msgs1-msgs0, exp1-exp0
	w.stats = ts1
	w.stats.FramesDelivered -= ts0.FramesDelivered
	w.stats.Retransmits -= ts0.Retransmits
	w.stats.DupDrops -= ts0.DupDrops
	w.stats.ReorderOverflow -= ts0.ReorderOverflow
	w.stats.DatagramsSent -= ts0.DatagramsSent
	w.stats.AckDatagrams -= ts0.AckDatagrams
	w.stats.FramesWire -= ts0.FramesWire
	w.stats.WireBytes -= ts0.WireBytes
	// The cluster is quiescent but alive: what it retains per node.
	if heap := heapAfterGC(); heap > heapBase {
		w.heapPerNode = float64(heap-heapBase) / float64(n)
	}
}

// client is one closed-loop user: think → Acquire → hold → Release. A
// grant is booked to the measured window by the instant Acquire returned.
func (w *window) client(ctx context.Context, id int, winStart, winEnd int64) {
	rng := rand.New(rand.NewPCG(w.seed, uint64(id)+0x9e3779b9))
	handle := w.lc.c.Node(core.NodeID(id))
	log := &w.logs[id]
	think := time.NewTimer(time.Hour)
	defer think.Stop()
	for attempt := uint64(1); ; attempt++ {
		think.Reset(paretoThink(rng, w.spec))
		select {
		case <-ctx.Done():
			return
		case <-think.C:
		}
		var root uint64
		if w.t != nil {
			root = w.t.beginOp(core.NodeID(id), attempt, (attempt+uint64(id))%sampleEvery == 0)
		}
		called := now()
		lease, err := handle.Acquire(ctx)
		granted := now()
		if w.t != nil {
			w.t.endOp(core.NodeID(id))
		}
		if err != nil {
			if ctx.Err() == nil {
				log.errs++ // refused or stopped before the deadline
			}
			return
		}
		w.hold.enter(id)
		time.Sleep(liveHold)
		w.hold.exit(id)
		relStart := now()
		err = lease.Release()
		relEnd := now()
		inWindow := granted >= winStart && granted < winEnd
		if errors.Is(err, livenet.ErrLeaseExpired) && inWindow {
			log.expired++
		}
		if inWindow {
			log.grantNs = append(log.grantNs, granted-called)
			log.grantAt = append(log.grantAt, int32((granted-winStart)/int64(time.Millisecond)))
			log.releaseNs.add(relEnd - relStart)
		}
		if root != 0 {
			op, node := attempt, int32(id)
			w.t.addSpan(Span{ID: root, Name: "client.Acquire", Node: node, Op: op, Start: called, End: granted})
			w.t.addSpan(Span{ID: w.t.newID(), Parent: root, Name: "client.hold", Node: node, Op: op, Start: granted, End: relStart})
			w.t.addSpan(Span{ID: w.t.newID(), Parent: root, Name: "lease.Release", Node: node, Op: op, Start: relStart, End: relEnd})
		}
	}
}

// newWindow allocates the per-client logs before the heap baseline is
// read, so the benchmark's own sample buffers cancel out of
// heap_bytes_per_node.
func newWindow(s liveSpec, seed uint64, seconds int, warm time.Duration, t *tracer) *window {
	w := &window{spec: s, t: t, seconds: seconds, warm: warm, seed: seed, hold: newHolders(s.n), logs: make([]clientLog, s.n)}
	for i := range w.logs {
		// A client cannot complete more than one cycle per hold time.
		w.logs[i].grantNs = make([]int64, 0, seconds*500)
		w.logs[i].grantAt = make([]int32, 0, seconds*500)
	}
	return w
}

// latencySlice is the width of the slices the latency percentiles are
// taken over (see slicePercentile).
const latencySlice = 100 // ms

// grantLog is the clients' logs of one window, merged.
type grantLog struct {
	sorted   []int64   // every grant latency of the window, ascending
	perSlice [][]int64 // the same, by 100-ms slice of the window
	buckets  []int64   // grants per 1-s bucket of the window
	errs     int64
	expired  int64
	release  logHist
}

// grants merges the clients' logs.
func (w *window) grants() grantLog {
	g := grantLog{buckets: make([]int64, w.seconds), perSlice: make([][]int64, w.seconds*1000/latencySlice)}
	for i := range w.logs {
		l := &w.logs[i]
		g.sorted = append(g.sorted, l.grantNs...)
		for j, at := range l.grantAt {
			g.perSlice[at/latencySlice] = append(g.perSlice[at/latencySlice], l.grantNs[j])
			g.buckets[at/1000]++
		}
		g.errs += l.errs
		g.expired += l.expired
		g.release.merge(&l.releaseNs)
	}
	slices.Sort(g.sorted)
	for _, b := range g.perSlice {
		slices.Sort(b)
	}
	return g
}

// slicePercentile is the latency rule of the live workloads, the
// counterpart of bucketMedian: the p-quantile of each 100-ms slice of the
// window, then the median over the slices, in microseconds. A shared box
// stalls in bursts; a whole-window tail percentile reports the worst
// bursts of the window, the median slice reports the typical moment (the
// run-to-run spread of p99 on live_chan_sat falls from 10 % to 6 %).
func slicePercentile(perSlice [][]int64, p float64) float64 {
	xs := make([]float64, 0, len(perSlice))
	for _, b := range perSlice {
		if len(b) > 0 {
			xs = append(xs, float64(percentile(b, p))/1e3)
		}
	}
	return median(xs)
}

// check applies the live correctness gate to a stopped cluster.
func (w *window) check(res *Result) {
	c := w.lc.c
	if v := c.Violations(); len(v) > 0 {
		res.problemf("%d mutual exclusion violations, first: %v", len(v), v[0])
	}
	if o := w.hold.overlaps.Load(); o > 0 {
		res.problemf("%d times two ring neighbours held a lease at once (client-side holder flags)", o)
	}
	for id, meals := range c.Meals() {
		if meals == 0 {
			res.problemf("node %d was never served", id)
			break
		}
	}
	if w.lc.decor != nil {
		if b := w.lc.decor.contractBreaches(); b > 0 {
			res.problemf("transport contract broken %d times (out-of-order or duplicate delivery seen by the decorator)", b)
		}
	}
}

func runLive(s liveSpec, opt Options) (Result, error) {
	res := Result{Metrics: map[string]float64{}}
	seconds := max(int(opt.Seconds), 1)

	// The window's sample buffers are allocated first: every set-up, the
	// probes' and the measured cluster's, then runs against the same heap.
	var t *tracer
	if opt.Traced {
		t = newTracer(s.n)
	}
	w := newWindow(s, opt.Seed, seconds, liveWarmup, t)

	// Set-up probes: construct, start, stop, several times over.
	var setups []float64
	for i := 0; i < setupProbes && !opt.Traced; i++ {
		// Collect the previous cluster first, so its garbage is not
		// collected in the middle of the next set-up's timing.
		runtime.GC()
		lc, err := startLive(s, opt.Seed, nil)
		if err != nil {
			return res, err
		}
		setups = append(setups, lc.startS)
		lc.stop()
	}

	var refAcqPerS float64
	if opt.Traced {
		// Untraced reference window in the same process, for the
		// decorators' own cost.
		ref := newWindow(s, opt.Seed, refSeconds, liveWarmup/2, nil)
		lc, err := startLive(s, opt.Seed, nil)
		if err != nil {
			return res, err
		}
		ref.lc = lc
		ref.run(0)
		lc.stop()
		refAcqPerS = bucketMedian(ref.grants().buckets)
	}

	heapBase := heapAfterGC()
	lc, err := startLive(s, opt.Seed, t)
	if err != nil {
		return res, err
	}
	w.lc = lc
	setups = append(setups, lc.startS)
	w.run(heapBase)
	stopS := lc.stop()

	g := w.grants()
	sorted, perSlice := g.sorted, g.perSlice
	acq := int64(len(sorted))
	expired := max(g.expired, int64(w.expiredCluster))
	res.Attempted = acq + g.errs
	res.Failed = g.errs + expired + w.hold.overlaps.Load()
	w.check(&res)
	if acq == 0 {
		res.problemf("no lease granted in the measured window")
		return res, nil
	}

	acqPerS := bucketMedian(g.buckets)
	p50 := slicePercentile(perSlice, 0.50)
	tail := tailPercentile(len(sorted))
	opt.logf("  %s: %d grants in %ds, buckets %v", s.name, acq, seconds, g.buckets)
	res.notef("grant latency: %d exact client-side samples; whole window p50 = %.1f us, p99 = %.1f us; highest percentile with >=10 samples beyond it: p%g = %.1f us",
		len(sorted), float64(percentile(sorted, 0.50))/1e3, float64(percentile(sorted, 0.99))/1e3, tail*100, float64(percentile(sorted, tail))/1e3)
	res.notef("closed loop, %d client goroutines in this process, loopback only (never a real link)", s.n)

	m := res.Metrics
	if !opt.Traced {
		m["setup_s"] = setupTime(&res, setups)
		m["acq_per_s"] = acqPerS
		m["grant_p50_us"] = p50
		m["grant_p99_us"] = slicePercentile(perSlice, 0.99)
		m["cpu_ms_per_kacq"] = w.cpuS * 1e3 / (float64(acq) / 1e3)
		m["msgs_per_cs"] = float64(w.msgs) / float64(acq)
		m["events_per_s"] = float64(w.stats.FramesDelivered) / w.wallS
		m["wall_s"] = w.wallS
		m["heap_bytes_per_node"] = w.heapPerNode
		m["rt_p95_ms"] = slicePercentile(perSlice, 0.95) / 1e3
		return res, nil
	}

	// Per-layer metrics of the traced window.
	var core_, send struct {
		calls    uint64
		busy, in int64
	}
	var onMsg logHist
	var captured []core.Message
	for i := range t.nodes {
		nt := &t.nodes[i]
		for _, c := range nt.calls {
			core_.calls += c
		}
		core_.busy += nt.busyNs
		core_.in += nt.envNs
		onMsg.merge(&nt.onMsg)
		send.calls += nt.sendCalls
		send.busy += nt.sendNs
		captured = append(captured, nt.captured...)
	}
	var transit logHist
	var deliverNs int64
	for _, lt := range lc.decor.links {
		transit.merge(&lt.transit)
		deliverNs += lt.deliverNs
	}
	handlerS := float64(core_.busy-core_.in) / 1e9
	sendS, deliverS := float64(send.busy)/1e9, float64(deliverNs)/1e9
	m["core.handler_calls"] = float64(core_.calls)
	m["core.handler_busy_s"] = handlerS
	m["core.handler_ns_per_call"] = handlerS * 1e9 / float64(max(core_.calls, 1))
	m["core.onmessage_ns_p99"] = onMsg.quantile(0.99)
	m["core.calls_per_cs"] = float64(core_.calls) / float64(acq)
	m["core.handler_share"] = handlerS / w.cpuS

	ts := w.stats
	m["livenet.send_calls"] = float64(send.calls)
	m["livenet.send_busy_s"] = sendS
	m["livenet.send_ns_per_frame"] = float64(send.busy) / float64(max(send.calls, 1))
	m["livenet.transit_us_p50"] = transit.quantile(0.50) / 1e3
	m["livenet.transit_us_p99"] = transit.quantile(0.99) / 1e3
	m["livenet.deliver_busy_s"] = deliverS
	dataDgrams := ts.DatagramsSent - ts.AckDatagrams
	if dataDgrams > 0 {
		m["livenet.frames_per_datagram"] = float64(ts.FramesWire) / float64(dataDgrams)
	}
	m["livenet.datagrams_per_acq"] = float64(ts.DatagramsSent) / float64(acq)
	m["livenet.wire_bytes_per_acq"] = float64(ts.WireBytes) / float64(acq)
	if ts.DatagramsSent > 0 {
		m["livenet.ack_datagram_share"] = float64(ts.AckDatagrams) / float64(ts.DatagramsSent)
		m["livenet.retransmit_share"] = float64(ts.Retransmits) / float64(ts.DatagramsSent)
	}
	m["livenet.dup_drops"] = float64(ts.DupDrops)
	m["livenet.reorder_depth_hw"] = float64(ts.ReorderDepthHW)
	m["livenet.reorder_overflow"] = float64(ts.ReorderOverflow)
	if ts.AckRTTUS.Count > 0 {
		rtt := metrics.FromSnapshot(ts.AckRTTUS)
		m["livenet.ack_rtt_p50_us"] = float64(rtt.Quantile(0.50))
		m["livenet.ack_rtt_p99_us"] = float64(rtt.Quantile(0.99))
	}

	if tp50 := m["livenet.transit_us_p50"]; tp50 > 0 {
		m["livenet.hops_per_grant"] = p50 / tp50
	}
	m["livenet.release_ns_p50"] = g.release.quantile(0.50)
	m["livenet.expired_leases"] = float64(expired)
	// deliver_busy_s is wall time summed over concurrent links and mostly
	// waiting (for busMu), so it is not subtracted from the CPU.
	hostS := max(w.cpuS-handlerS-sendS, 0)
	m["livenet.host_cpu_s"] = hostS
	m["livenet.host_share"] = hostS / w.cpuS
	m["livenet.goroutines_per_node"] = float64(w.goroutines) / float64(s.n)
	m["livenet.start_s"] = lc.startS
	m["livenet.stop_s"] = stopS

	wireProbe(m, captured, m["livenet.frames_per_datagram"])
	if s.udp {
		codecS := (m["wire.encode_ns_per_msg"] + m["wire.decode_ns_per_msg"]) * float64(ts.FramesWire) / 1e9
		m["wire.codec_share"] = codecS / w.cpuS
	}
	schedulerProbe(m)
	setRuntimeMetrics(m, w.rt, float64(acq), w.cpuS)
	if acqPerS > 0 {
		m["bench.trace_overhead_x"] = refAcqPerS / acqPerS
	}
	m["bench.failed_share"] = float64(res.Failed) / float64(max(res.Attempted, 1))
	res.notef("traced window: %.0f acq/s against %.0f acq/s untraced in this process", acqPerS, refAcqPerS)

	note := fmt.Sprintf("1-in-%d sample of acquisitions; op = the node's attempt number; times in ns since process start", sampleEvery)
	return res, writeTrace(opt, s.name, note, t)
}
