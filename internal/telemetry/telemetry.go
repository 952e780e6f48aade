// Package telemetry defines the lme/telemetry/v1 wire structs: the
// execution-layer introspection record shared by the sharded engine
// (per-tile counters, window/barrier statistics) and the live transports
// (per-directed-link wire counters). The structs here are pure data —
// collection lives with the code being measured (internal/manet,
// internal/livenet) and the surfacing lives with the existing
// observability stack (progress heartbeats, lmebench -scale extras,
// lmeload -json, the lmetop view).
//
// The contract the schema tests pin: telemetry is out-of-band. Nothing
// in this package (or in the collection paths that fill it) may perturb
// the canonical event order, the golden trace hash, a result_hash or any
// experiment table — counters describe a run, they never participate in
// it.
package telemetry

import "lme/internal/metrics"

// Schema identifies the telemetry record layout; bump on breaking
// changes. Engine and transport sections both carry it so a JSONL
// consumer can recognise embedded telemetry regardless of the envelope
// (progress record, scale result, load report).
const Schema = "lme/telemetry/v1"

// TileStats is one tile's cumulative execution counters. Tile indices
// are row-major over the g×g grid: tile i sits at column i%g, row i/g.
type TileStats struct {
	Tile          int32  `json:"tile"`
	Events        uint64 `json:"events"`
	MsgsSent      uint64 `json:"msgs_sent"`
	MsgsDelivered uint64 `json:"msgs_delivered"`
}

// TileLink is one directed cell of the tile→tile traffic matrix: how
// many message deliveries were sent from a node of tile From to a node
// of tile To. Same-tile deliveries are not counted here.
type TileLink struct {
	From int32  `json:"from"`
	To   int32  `json:"to"`
	Msgs uint64 `json:"msgs"`
}

// EngineStats is the simulator's execution telemetry: what the tile
// engine's window/barrier loop did, per tile and in aggregate. All
// counters are cumulative since Start. A 1×1 grid reports one PerTile
// entry and one worker; every window of it runs direct.
type EngineStats struct {
	Schema string `json:"schema"`
	// Tiles is the grid side g (the run has g×g tiles); Workers the
	// worker-goroutine bound.
	Tiles   int `json:"tiles"`
	Workers int `json:"workers"`
	// Windows counts windows executed; Events the total events across
	// coordinator and tiles.
	Windows uint64 `json:"windows"`
	Events  uint64 `json:"events"`
	// StealAttempts/StealHits count draws on the window work queue:
	// every index a worker pulled (attempts) and every pull that yielded
	// a tile to run (hits). Attempts−hits is the number of empty draws —
	// workers that arrived after the window's tiles were taken. A direct
	// window counts one hit per active tile.
	StealAttempts uint64 `json:"steal_attempts"`
	StealHits     uint64 `json:"steal_hits"`
	// DirectWindows counts the windows the coordinator ran in place, in
	// canonical order, instead of handing them to workers — the engine's
	// choice for windows too small to repay a fork/join and an effect
	// replay — and DirectEvents the events executed in them (both are
	// included in Windows and Events).
	DirectWindows uint64 `json:"direct_windows,omitempty"`
	DirectEvents  uint64 `json:"direct_events,omitempty"`
	// CrossTileMsgs counts message deliveries sent from one tile to
	// another — the traffic the Traffic matrix breaks down by pair.
	CrossTileMsgs uint64 `json:"cross_tile_msgs"`
	// ImbalanceMaxAvg and ImbalanceMeanAvg are the per-window maximum
	// and mean events-per-active-tile, averaged over windows; Imbalance
	// is their ratio (1.0 = perfectly balanced windows, large = a few
	// hot tiles dominate and the barrier waits for them).
	ImbalanceMaxAvg  float64 `json:"imbalance_max_avg"`
	ImbalanceMeanAvg float64 `json:"imbalance_mean_avg"`
	Imbalance        float64 `json:"imbalance"`
	// WindowSpanUS sketches the virtual-time width of each window (µs);
	// BarrierStallNS sketches per-worker wall-clock stall at window
	// joins — the time between a worker running out of tiles and the
	// last worker finishing.
	WindowSpanUS   metrics.SketchSnapshot `json:"window_span_us"`
	BarrierStallNS metrics.SketchSnapshot `json:"barrier_stall_ns"`
	// PerTile holds one entry per tile, index-ordered; Traffic the
	// nonzero cells of the tile→tile matrix, (from, to)-ordered.
	PerTile []TileStats `json:"per_tile"`
	Traffic []TileLink  `json:"traffic,omitempty"`
}

// TransportStats is a live transport's cumulative wire telemetry,
// aggregated over its directed links. The channel transport reports the
// frame counts and zeros for the shim counters (it has no wire to lose
// frames on) — the seam contract stays observable on both
// implementations.
type TransportStats struct {
	Schema string `json:"schema"`
	// Kind names the implementation ("udp", "channel").
	Kind string `json:"kind"`
	// Links is the number of directed links the transport carries.
	Links int `json:"links"`
	// FramesSent counts frames accepted by Send; FramesDelivered frames
	// handed to the delivery callback.
	FramesSent      uint64 `json:"frames_sent"`
	FramesDelivered uint64 `json:"frames_delivered"`
	// Retransmits counts datagrams resent by the RTO loop; DupDrops
	// duplicates suppressed on receive (by seq or by message id).
	Retransmits uint64 `json:"retransmits"`
	DupDrops    uint64 `json:"dup_drops"`
	// ReorderDepthHW is the high-water reorder-buffer depth across
	// links; ReorderOverflow counts datagrams discarded because a link's
	// reorder buffer was full (each is recovered by retransmission).
	ReorderDepthHW  uint64 `json:"reorder_depth_hw"`
	ReorderOverflow uint64 `json:"reorder_overflow"`
	// Datagram-coalescing counters (zero on the channel transport, which
	// has no datagrams). A datagram is what one socket write carried — on
	// the UDP transport a train of the link datagrams of one flush.
	// DatagramsSent counts every one written, AckDatagrams those with no
	// data in them (cumulative ACKs only), AcksPiggybacked the ACKs that
	// rode in a datagram carrying data instead of costing their own.
	DatagramsSent   uint64 `json:"datagrams_sent"`
	AckDatagrams    uint64 `json:"ack_datagrams"`
	AcksPiggybacked uint64 `json:"acks_piggybacked"`
	// FramesWire counts frames written to the wire (retransmissions
	// included); WireBytes the total datagram bytes written; PayloadBytes
	// the encoded payload bytes accepted at Send.
	FramesWire   uint64 `json:"frames_wire"`
	WireBytes    uint64 `json:"wire_bytes"`
	PayloadBytes uint64 `json:"payload_bytes"`
	// FramesPerDatagram is FramesWire over data datagrams (coalescing
	// density; 1.0 means no coalescing); PayloadBytesPerFrame is
	// PayloadBytes over FramesSent (codec compactness).
	FramesPerDatagram    float64 `json:"frames_per_datagram"`
	PayloadBytesPerFrame float64 `json:"payload_bytes_per_frame"`
	// AckRTTUS sketches the send→cumulative-ACK round trip (µs),
	// sampled only on frames acknowledged without an intervening
	// retransmit (Karn's rule: a retransmitted frame's ACK is ambiguous).
	// ACKs are delayed: on a link whose ACKs go out standalone rather
	// than riding on reverse data, the sample includes the receiver's
	// ACK delay (RTO/8). The RTO is fixed; nothing feeds back from this.
	AckRTTUS metrics.SketchSnapshot `json:"ack_rtt_us"`
}
