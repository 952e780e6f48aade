// Package bench is lmeperf, the repository's end-to-end and per-layer
// benchmark. It measures the program from outside: the benchmark's own
// closed-loop clients on the lease API, timing decorators around
// core.Protocol, core.Env and livenet.Transport, direct timed calls into
// wire and sim, and the counters the program already exports. No file of
// the program under test knows the benchmark exists.
//
// This file is the catalogue: every workload and metric name the
// benchmark prints, with its unit, direction and (for end-to-end
// metrics) regression bound. BENCHMARK.json at the repository root
// declares the same names; TestBenchmarkJSONMatchesCatalogue pins that
// the two never drift.
package bench

// RunSeconds is the measured budget of one pass, and what BENCHMARK.json
// declares as run_seconds.
const RunSeconds = 10

// Workload names one set of inputs and why it exists.
type Workload struct {
	Name string
	Why  string
}

// Workloads lists the six pinned workloads in run order.
var Workloads = []Workload{
	{"live_udp_sat", "alg2 on ring(256) over loopback UDP, 256 closed-loop clients, CPU-saturated: codec, datagram build, syscalls, reliability shim and handlers compete for the cores"},
	{"live_chan_sat", "same clients and graph on the in-process channel transport: bypasses wire and udp.go, so a wire-path change predicts no change here"},
	{"live_udp_sparse", "alg2 on ring(128) over UDP with 5 ms think: cores half idle, latency is linger, delayed-ACK and RTO timers and per-hop syscalls, not CPU"},
	{"sim_static_10k", "lme1 greedy on a 100x100 lattice, Lean harness, sharded engine, one crash: steady-state heaps, windows, barriers and steals without topology change"},
	{"sim_mobile_2k", "alg2 on 2000 geometric nodes with 200 waypoint movers, full harness with observers: serialised topology events, link refresh, tile migration, fork hand-over on new links"},
	{"tables_full", "every paper experiment at Full quality through harness.Engine: all algorithms, single-heap scheduler, spans on, fleet pool; the paper reproduction itself"},
}

// Metric is one named number the benchmark prints.
type Metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression (0 for
	// per-layer metrics, which have none).
	Bound float64
	// Doc defines the metric; for end-to-end metrics it names the
	// per-workload meaning where the workloads differ.
	Doc string
	// Moves names, for a per-layer metric, the end-to-end metric and
	// workload it should move, and after "≠" the workload where the
	// prediction is no change.
	Moves string
}

// EndToEnd lists the metrics of the untraced pass. Every workload
// reports every one of them (the driver's contract), so each has one
// general definition and, where the workloads differ, a documented
// per-workload reading: the unit of work ("acquisition", "cs") is a
// granted lease on live_*, a completed critical section on sim_*, and one
// fleet job (one seeded simulation run of a table cell) on tables_full.
// Bounds are sized from the measured run-to-run spread on the 2-core
// reference box, a shared VM whose speed drifts by 10–15% over minutes:
// every wall-clock metric gets the contract's maximum (see README.md,
// "Steadiness").
var EndToEnd = []Metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Doc: "construction to ready, warm-up excluded, the fastest of the set-ups of one pass: protocols + transport (socket binds) + livenet.New + Start on live_*; harness.Build + World.Start on sim_*; building the 12 experiment plans on tables_full"},
	{Name: "acq_per_s", Unit: "1/s", Better: "higher", Bound: 0.25,
		Doc: "units of work per wall second: granted leases, median of the 1-s buckets of the measured window (live_*); critical sections of one measured run over wall_s (sim_*); fleet jobs per wall second (tables_full)"},
	{Name: "grant_p50_us", Unit: "us", Better: "lower", Bound: 0.25,
		Doc: "median latency of one unit of work: Acquire call to return, exact client-side samples, the median of each 100-ms slice of the window and then the median over the slices (live_*, wall); hungry to eating of static nodes, exact samples (sim_*, virtual time, exact per seed); wall time of one fleet job (tables_full)"},
	{Name: "grant_p99_us", Unit: "us", Better: "lower", Bound: 0.25,
		Doc: "same samples and slice rule as grant_p50_us, p99"},
	{Name: "cpu_ms_per_kacq", Unit: "ms", Better: "lower", Bound: 0.25,
		Doc: "process user+sys CPU per 1000 units of work over the measured window or run"},
	{Name: "msgs_per_cs", Unit: "count", Better: "lower", Bound: 0.15,
		Doc: "protocol messages sent per completed critical section: Cluster.MessagesSent over leases (live_*); World.MessagesSent over meals, exact per seed (sim_*); the alg2 row's msg/meal cell of the E1 table (tables_full)"},
	{Name: "events_per_s", Unit: "1/s", Better: "higher", Bound: 0.25,
		Doc: "simulator events executed per wall second: the median over the RunFor slices, 8 per run, of every run of the pass (sim_*); of a run, median over runs (tables_full); transport frames delivered per wall second, the live runtime's event (live_*)"},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25,
		Doc: "events of one measured run, fixed per seed, over events_per_s (sim_*); wall clock of one run, median over runs (tables_full); wall clock of the measured window (live_*, fixed by design)"},
	{Name: "heap_bytes_per_node", Unit: "B", Better: "lower", Bound: 0.25,
		Doc: "HeapAlloc after runtime.GC() at the end of the window with the system still alive, minus the same reading before construction, per node (live_*, sim_*); HeapAlloc of the whole process after GC with the rendered tables retained, per fleet job (tables_full; the driver starts a fresh process per pass)"},
	{Name: "rt_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Doc: "response time p95, the paper's Definition 1: hungry to eating of static nodes in virtual ms, exact per seed (sim_*); Acquire to grant in wall ms, slice rule of grant_p50_us (live_*); the alg2 row's RT static p95 cell of the E1 table (tables_full)"},
}

// PerLayer lists the metrics of the traced pass. The prefix is the
// module whose public boundary is timed. A metric that does not apply to
// a workload reads 0 there.
var PerLayer = []Metric{
	// core: time inside core.Protocol methods, net of the core.Env calls
	// they make (self time).
	{Name: "core.handler_calls", Unit: "count", Better: "lower", Doc: "Protocol method calls in the measured window (Init, OnMessage, OnLinkUp, OnLinkDown, BecomeHungry, ExitCS)", Moves: "events_per_s on sim_static_10k"},
	{Name: "core.handler_busy_s", Unit: "s", Better: "lower", Doc: "self time of those calls: duration minus the time inside Env.Send/Broadcast/SetState", Moves: "events_per_s on sim_static_10k; acq_per_s on live_chan_sat; ≠ grant_p50_us on live_udp_sparse"},
	{Name: "core.handler_ns_per_call", Unit: "ns", Better: "lower", Doc: "handler_busy_s / handler_calls", Moves: "events_per_s on sim_static_10k"},
	{Name: "core.onmessage_ns_p99", Unit: "ns", Better: "lower", Doc: "p99 of OnMessage self time (log-bucket histogram, ±6%)", Moves: "grant_p99_us on live_chan_sat"},
	{Name: "core.calls_per_cs", Unit: "count", Better: "lower", Doc: "handler_calls per completed critical section", Moves: "msgs_per_cs on every workload"},
	{Name: "core.handler_share", Unit: "ratio", Better: "lower", Doc: "handler_busy_s / process CPU of the window", Moves: "cpu_ms_per_kacq on live_chan_sat"},

	// sim: direct timed calls.
	{Name: "sim.scheduler_ns_per_event", Unit: "ns", Better: "lower", Doc: "At+Step churn on sim.Scheduler with 512 standing events", Moves: "events_per_s on tables_full; ≠ any live_*"},
	{Name: "sim.eventheap_ns_per_op", Unit: "ns", Better: "lower", Doc: "EventHeap push+pop pair under canonical sim.Key, 512 standing items", Moves: "events_per_s on sim_static_10k; ≠ any live_*"},

	// manet: RunFor timing + EngineTelemetry().
	{Name: "manet.start_s", Unit: "s", Better: "lower", Doc: "harness.Build + World.Start of the traced runs, median", Moves: "setup_s on sim_*"},
	{Name: "manet.run_cpu_s", Unit: "s", Better: "lower", Doc: "process CPU of one measured run at the median CPU per event of its RunFor slices", Moves: "wall_s on sim_*"},
	{Name: "manet.engine_cpu_s", Unit: "s", Better: "lower", Doc: "run_cpu_s minus core.handler_busy_s: heaps, links, windows, observers", Moves: "wall_s on sim_static_10k and sim_mobile_2k"},
	{Name: "manet.engine_ns_per_event", Unit: "ns", Better: "lower", Doc: "engine_cpu_s per executed event", Moves: "events_per_s on sim_*"},
	{Name: "manet.parallel_efficiency", Unit: "ratio", Better: "higher", Doc: "run CPU / (run wall x workers)", Moves: "wall_s on sim_static_10k"},
	{Name: "manet.windows", Unit: "count", Better: "lower", Doc: "parallel windows executed (whole run)", Moves: "wall_s on sim_static_10k; ≠ tables_full"},
	{Name: "manet.events_per_window", Unit: "count", Better: "higher", Doc: "events / windows", Moves: "events_per_s on sim_static_10k"},
	{Name: "manet.barrier_stall_p50_us", Unit: "us", Better: "lower", Doc: "per-worker wall stall at window joins, median", Moves: "wall_s on sim_static_10k"},
	{Name: "manet.barrier_stall_p99_us", Unit: "us", Better: "lower", Doc: "same, p99", Moves: "wall_s on sim_static_10k"},
	{Name: "manet.steal_hit_ratio", Unit: "ratio", Better: "higher", Doc: "steal hits / steal attempts", Moves: "wall_s on sim_static_10k"},
	{Name: "manet.tile_imbalance", Unit: "ratio", Better: "lower", Doc: "max/mean events per active tile per window", Moves: "wall_s on sim_static_10k"},
	{Name: "manet.cross_tile_share", Unit: "ratio", Better: "lower", Doc: "cross-tile deliveries / deliveries", Moves: "events_per_s on sim_static_10k"},
	{Name: "manet.link_events", Unit: "count", Better: "lower", Doc: "OnLinkUp + OnLinkDown seen by the Protocol decorator in the measured run", Moves: "wall_s on sim_mobile_2k; ≠ sim_static_10k"},
	{Name: "manet.link_events_per_vsec", Unit: "1/s", Better: "lower", Doc: "link_events per virtual second", Moves: "wall_s on sim_mobile_2k"},

	// wire: direct timed calls on messages captured by the Transport decorator.
	{Name: "wire.encode_ns_per_msg", Unit: "ns", Better: "lower", Doc: "wire.AppendMessage per captured message", Moves: "cpu_ms_per_kacq on live_udp_sat; ≠ live_chan_sat"},
	{Name: "wire.decode_ns_per_msg", Unit: "ns", Better: "lower", Doc: "wire.DecodeMessage per captured message", Moves: "cpu_ms_per_kacq on live_udp_sat; ≠ live_chan_sat"},
	{Name: "wire.payload_bytes_per_msg", Unit: "B", Better: "lower", Doc: "mean encoded payload size of the captured messages", Moves: "livenet.wire_bytes_per_acq on live_udp_*"},
	{Name: "wire.frame_build_ns", Unit: "ns", Better: "lower", Doc: "AppendFrame per frame into a datagram of the observed coalescing density", Moves: "cpu_ms_per_kacq on live_udp_sat"},
	{Name: "wire.parse_ns_per_dgram", Unit: "ns", Better: "lower", Doc: "ParseDgram + NextFrame loop over such a datagram", Moves: "cpu_ms_per_kacq on live_udp_sat"},
	{Name: "wire.codec_share", Unit: "ratio", Better: "lower", Doc: "(encode + decode) x frames on the wire / process CPU; 0 on the channel transport", Moves: "cpu_ms_per_kacq and acq_per_s on live_udp_sat; ≠ live_chan_sat"},

	// livenet transport: Transport decorator + TransportStats.
	{Name: "livenet.send_calls", Unit: "count", Better: "lower", Doc: "Transport.Send calls in the window", Moves: "msgs_per_cs on live_*"},
	{Name: "livenet.send_busy_s", Unit: "s", Better: "lower", Doc: "time inside Transport.Send", Moves: "cpu_ms_per_kacq on live_udp_sat"},
	{Name: "livenet.send_ns_per_frame", Unit: "ns", Better: "lower", Doc: "send_busy_s / send_calls", Moves: "acq_per_s on live_udp_sat"},
	{Name: "livenet.transit_us_p50", Unit: "us", Better: "lower", Doc: "Send entry to deliver-callback entry, keyed by (from, mseq), median", Moves: "grant_p50_us on live_udp_sparse (x hops_per_grant)"},
	{Name: "livenet.transit_us_p99", Unit: "us", Better: "lower", Doc: "same, p99", Moves: "grant_p99_us on live_udp_sparse"},
	{Name: "livenet.deliver_busy_s", Unit: "s", Better: "lower", Doc: "wall time inside the cluster's deliver callback, summed over the links' concurrent deliveries: mostly waiting for busMu, so it can exceed the window", Moves: "cpu_ms_per_kacq on live_chan_sat"},
	{Name: "livenet.frames_per_datagram", Unit: "count", Better: "higher", Doc: "TransportStats coalescing density", Moves: "acq_per_s on live_udp_sat; pulls against transit_us_p50 on live_udp_sparse"},
	{Name: "livenet.datagrams_per_acq", Unit: "count", Better: "lower", Doc: "datagrams sent per lease", Moves: "acq_per_s and cpu_ms_per_kacq on live_udp_sat"},
	{Name: "livenet.wire_bytes_per_acq", Unit: "B", Better: "lower", Doc: "TransportStats.WireBytes per lease (the issue's bytes_per_acq; UDP only, so not an end-to-end metric of every workload)", Moves: "cpu_ms_per_kacq on live_udp_sat"},
	{Name: "livenet.ack_datagram_share", Unit: "ratio", Better: "lower", Doc: "standalone ACK datagrams / datagrams", Moves: "cpu_ms_per_kacq on live_udp_sparse"},
	{Name: "livenet.retransmit_share", Unit: "ratio", Better: "lower", Doc: "retransmitted datagrams / datagrams", Moves: "grant_p99_us on live_udp_sat"},
	{Name: "livenet.dup_drops", Unit: "count", Better: "lower", Doc: "duplicates suppressed on receive", Moves: "grant_p99_us on live_udp_sat"},
	{Name: "livenet.reorder_depth_hw", Unit: "count", Better: "lower", Doc: "reorder buffer high-water mark", Moves: "grant_p99_us on live_udp_sat"},
	{Name: "livenet.reorder_overflow", Unit: "count", Better: "lower", Doc: "datagrams discarded on a full reorder buffer", Moves: "grant_p99_us on live_udp_sat"},
	{Name: "livenet.ack_rtt_p50_us", Unit: "us", Better: "lower", Doc: "Karn-sampled send to cumulative ACK, median", Moves: "grant_p50_us on live_udp_sparse"},
	{Name: "livenet.ack_rtt_p99_us", Unit: "us", Better: "lower", Doc: "same, p99", Moves: "grant_p99_us on live_udp_sparse"},

	// livenet host + lease: client loop and process counters.
	{Name: "livenet.hops_per_grant", Unit: "count", Better: "lower", Doc: "traced grant p50 / transit_us_p50: sequential link crossings on the critical path of a grant", Moves: "grant_p50_us on live_udp_sparse"},
	{Name: "livenet.release_ns_p50", Unit: "ns", Better: "lower", Doc: "Lease.Release call duration, median", Moves: "acq_per_s on live_chan_sat"},
	{Name: "livenet.expired_leases", Unit: "count", Better: "lower", Doc: "leases that hit their TTL", Moves: "failed on live_*"},
	{Name: "livenet.host_cpu_s", Unit: "s", Better: "lower", Doc: "process CPU minus handler and send busy: mailboxes, goroutine hops, busMu, deliver path, lease bookkeeping, socket readers, the clients", Moves: "acq_per_s and cpu_ms_per_kacq on live_chan_sat"},
	{Name: "livenet.host_share", Unit: "ratio", Better: "lower", Doc: "host_cpu_s / process CPU", Moves: "cpu_ms_per_kacq on live_chan_sat"},
	{Name: "livenet.goroutines_per_node", Unit: "count", Better: "lower", Doc: "goroutines the cluster runs per node, the benchmark's clients excluded", Moves: "heap_bytes_per_node on live_*"},
	{Name: "livenet.start_s", Unit: "s", Better: "lower", Doc: "traced construction to ready", Moves: "setup_s on live_*"},
	{Name: "livenet.stop_s", Unit: "s", Better: "lower", Doc: "Cluster.Stop duration", Moves: "none (lifecycle)"},

	// harness / fleet: timing each Engine.Run.
	{Name: "harness.exp_wall_s.E1", Unit: "s", Better: "lower", Doc: "wall clock of Engine.Run for E1, median over runs", Moves: "wall_s on tables_full"},
	{Name: "harness.exp_wall_s.E2", Unit: "s", Better: "lower", Doc: "same for E2", Moves: "wall_s on tables_full"},
	{Name: "harness.exp_wall_s.E3", Unit: "s", Better: "lower", Doc: "same for E3", Moves: "wall_s on tables_full"},
	{Name: "harness.exp_wall_s.E4", Unit: "s", Better: "lower", Doc: "same for E4", Moves: "wall_s on tables_full"},
	{Name: "harness.exp_wall_s.E5", Unit: "s", Better: "lower", Doc: "same for E5", Moves: "wall_s on tables_full"},
	{Name: "harness.exp_wall_s.E6", Unit: "s", Better: "lower", Doc: "same for E6", Moves: "wall_s on tables_full"},
	{Name: "harness.exp_wall_s.E7", Unit: "s", Better: "lower", Doc: "same for E7", Moves: "wall_s on tables_full"},
	{Name: "harness.exp_wall_s.E8", Unit: "s", Better: "lower", Doc: "same for E8", Moves: "wall_s on tables_full"},
	{Name: "harness.exp_wall_s.E9", Unit: "s", Better: "lower", Doc: "same for E9", Moves: "wall_s on tables_full"},
	{Name: "harness.exp_wall_s.E10", Unit: "s", Better: "lower", Doc: "same for E10", Moves: "wall_s on tables_full"},
	{Name: "harness.exp_wall_s.E11", Unit: "s", Better: "lower", Doc: "same for E11", Moves: "wall_s on tables_full"},
	{Name: "harness.exp_wall_s.E12", Unit: "s", Better: "lower", Doc: "same for E12", Moves: "wall_s on tables_full"},
	{Name: "harness.events_total", Unit: "count", Better: "lower", Doc: "simulator events of one run of all experiments", Moves: "wall_s on tables_full"},
	{Name: "fleet.worker_utilisation", Unit: "ratio", Better: "higher", Doc: "process CPU / (wall x workers) over the Engine.Run calls", Moves: "wall_s on tables_full"},

	// span / trace: the observability tax.
	{Name: "span.observed_vs_lean_x", Unit: "x", Better: "lower", Doc: "wall of the observed sim_mobile_2k run / wall of the same run built Lean", Moves: "wall_s on sim_mobile_2k and tables_full; ≠ sim_static_10k"},
	{Name: "trace.published", Unit: "count", Better: "lower", Doc: "events published on the world bus", Moves: "wall_s on sim_mobile_2k"},
	{Name: "trace.ring_overwritten", Unit: "count", Better: "lower", Doc: "events overwritten in the trace ring", Moves: "none (loss counter)"},
	{Name: "trace.sink_dropped", Unit: "count", Better: "lower", Doc: "events dropped by a saturated sink", Moves: "none (loss counter)"},

	// runtime: the Go runtime under every workload.
	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower", Doc: "mallocs per lease (live_*), per event (sim_*, tables_full)", Moves: "grant_p99_us on live_*_sat; heap_bytes_per_node"},
	{Name: "runtime.gc_cpu_share", Unit: "ratio", Better: "lower", Doc: "GC CPU seconds / process CPU", Moves: "cpu_ms_per_kacq on every workload"},
	{Name: "runtime.gc_pause_p99_us", Unit: "us", Better: "lower", Doc: "p99 of the stop-the-world pauses of the window", Moves: "grant_p99_us on live_*_sat"},
	{Name: "runtime.heap_peak_mb", Unit: "MB", Better: "lower", Doc: "peak heap object bytes, sampled every 50 ms", Moves: "heap_bytes_per_node"},

	// bench: the ruler's own cost and the failure count as a share.
	{Name: "bench.trace_overhead_x", Unit: "x", Better: "lower", Doc: "untraced / traced throughput of this workload in this process: what the decorators cost", Moves: "none (the ruler's own cost)"},
	{Name: "bench.failed_share", Unit: "ratio", Better: "lower", Doc: "failed / attempted of the traced pass (the issue's failed_share; 0 on a healthy run, so not an end-to-end metric with a relative bound)", Moves: "none (correctness)"},
}

// metricByName finds a catalogue entry.
func metricByName(name string) (Metric, bool) {
	for _, list := range [][]Metric{EndToEnd, PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return Metric{}, false
}
