package telemetry

// Schema-compat golden tests for lme/telemetry/v1: hand-written mirror
// structs strict-decode (DisallowUnknownFields) the encoded form of
// fully-populated records, so any field rename, retag or addition fails
// here and forces a deliberate schema decision. The mirrors are written
// out field by field on purpose — do NOT refactor them to reuse the
// production structs, that would make the test tautological.

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"lme/internal/metrics"
)

// sketchWire mirrors metrics.SketchSnapshot as embedded in telemetry
// sections.
type sketchWire struct {
	Gamma   float64 `json:"gamma"`
	Count   uint64  `json:"count"`
	Zero    uint64  `json:"zero"`
	Sum     float64 `json:"sum"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Buckets []struct {
		Index int32  `json:"i"`
		Count uint64 `json:"n"`
	} `json:"buckets"`
}

// engineWire pins the EngineStats field set.
type engineWire struct {
	Schema           string     `json:"schema"`
	Tiles            int        `json:"tiles"`
	Workers          int        `json:"workers"`
	Windows          uint64     `json:"windows"`
	Events           uint64     `json:"events"`
	StealAttempts    uint64     `json:"steal_attempts"`
	StealHits        uint64     `json:"steal_hits"`
	DirectWindows    uint64     `json:"direct_windows"`
	DirectEvents     uint64     `json:"direct_events"`
	CrossTileMsgs    uint64     `json:"cross_tile_msgs"`
	ImbalanceMaxAvg  float64    `json:"imbalance_max_avg"`
	ImbalanceMeanAvg float64    `json:"imbalance_mean_avg"`
	Imbalance        float64    `json:"imbalance"`
	WindowSpanUS     sketchWire `json:"window_span_us"`
	BarrierStallNS   sketchWire `json:"barrier_stall_ns"`
	PerTile          []struct {
		Tile          int32  `json:"tile"`
		Events        uint64 `json:"events"`
		MsgsSent      uint64 `json:"msgs_sent"`
		MsgsDelivered uint64 `json:"msgs_delivered"`
	} `json:"per_tile"`
	Traffic []struct {
		From int32  `json:"from"`
		To   int32  `json:"to"`
		Msgs uint64 `json:"msgs"`
	} `json:"traffic"`
}

// transportWire pins the TransportStats field set.
type transportWire struct {
	Schema               string     `json:"schema"`
	Kind                 string     `json:"kind"`
	Links                int        `json:"links"`
	FramesSent           uint64     `json:"frames_sent"`
	FramesDelivered      uint64     `json:"frames_delivered"`
	Retransmits          uint64     `json:"retransmits"`
	DupDrops             uint64     `json:"dup_drops"`
	ReorderDepthHW       uint64     `json:"reorder_depth_hw"`
	ReorderOverflow      uint64     `json:"reorder_overflow"`
	DatagramsSent        uint64     `json:"datagrams_sent"`
	AckDatagrams         uint64     `json:"ack_datagrams"`
	AcksPiggybacked      uint64     `json:"acks_piggybacked"`
	FramesWire           uint64     `json:"frames_wire"`
	WireBytes            uint64     `json:"wire_bytes"`
	PayloadBytes         uint64     `json:"payload_bytes"`
	FramesPerDatagram    float64    `json:"frames_per_datagram"`
	PayloadBytesPerFrame float64    `json:"payload_bytes_per_frame"`
	AckRTTUS             sketchWire `json:"ack_rtt_us"`
}

// fullSketch returns a snapshot with every field nonzero so omitempty
// regressions surface.
func fullSketch() metrics.SketchSnapshot {
	s := metrics.NewSketch()
	s.ObserveFloat(0) // populates the zero bucket
	s.ObserveFloat(12.5)
	s.ObserveFloat(940)
	return s.Snapshot()
}

func strictDecode(t *testing.T, data []byte, into any) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		t.Fatalf("schema drift: %v\nencoded: %s", err, data)
	}
}

func TestEngineStatsSchemaPinned(t *testing.T) {
	rec := EngineStats{
		Schema: Schema, Tiles: 2, Workers: 3,
		Windows: 40, Events: 10_000,
		StealAttempts: 90, StealHits: 80, CrossTileMsgs: 777,
		DirectWindows: 25, DirectEvents: 1_500,
		ImbalanceMaxAvg: 130, ImbalanceMeanAvg: 100, Imbalance: 1.3,
		WindowSpanUS:   fullSketch(),
		BarrierStallNS: fullSketch(),
		PerTile: []TileStats{
			{Tile: 0, Events: 4000, MsgsSent: 30, MsgsDelivered: 29},
			{Tile: 1, Events: 2000, MsgsSent: 10, MsgsDelivered: 10},
			{Tile: 2, Events: 2000, MsgsSent: 5, MsgsDelivered: 5},
			{Tile: 3, Events: 2000, MsgsSent: 1, MsgsDelivered: 1},
		},
		Traffic: []TileLink{{From: 0, To: 1, Msgs: 12}, {From: 3, To: 0, Msgs: 4}},
	}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var wire engineWire
	strictDecode(t, data, &wire)
	if wire.Schema != Schema || wire.Tiles != 2 || wire.Windows != 40 ||
		wire.StealAttempts != 90 || wire.CrossTileMsgs != 777 ||
		wire.DirectWindows != 25 || wire.DirectEvents != 1_500 ||
		wire.Imbalance != 1.3 || len(wire.PerTile) != 4 || len(wire.Traffic) != 2 {
		t.Fatalf("mirror mismatch: %+v", wire)
	}
	if wire.WindowSpanUS.Count != 3 || len(wire.WindowSpanUS.Buckets) == 0 {
		t.Fatalf("sketch section lost data: %+v", wire.WindowSpanUS)
	}

	// Round trip back into the production struct for value equality.
	var back EngineStats
	strictDecodeInto(t, data, &back)
	if !reflect.DeepEqual(rec, back) {
		t.Fatalf("round trip drift:\n got %+v\nwant %+v", back, rec)
	}
}

func TestTransportStatsSchemaPinned(t *testing.T) {
	rec := TransportStats{
		Schema: Schema, Kind: "udp", Links: 14,
		FramesSent: 1000, FramesDelivered: 998,
		Retransmits: 40, DupDrops: 7,
		ReorderDepthHW: 512, ReorderOverflow: 3,
		DatagramsSent: 220, AckDatagrams: 35, AcksPiggybacked: 160,
		FramesWire: 1040, WireBytes: 52_000, PayloadBytes: 9_000,
		FramesPerDatagram: 5.62, PayloadBytesPerFrame: 9.0,
		AckRTTUS: fullSketch(),
	}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var wire transportWire
	strictDecode(t, data, &wire)
	if wire.Schema != Schema || wire.Kind != "udp" || wire.Links != 14 ||
		wire.FramesSent != 1000 || wire.Retransmits != 40 ||
		wire.ReorderDepthHW != 512 || wire.ReorderOverflow != 3 ||
		wire.DatagramsSent != 220 || wire.AckDatagrams != 35 ||
		wire.AcksPiggybacked != 160 || wire.FramesWire != 1040 ||
		wire.WireBytes != 52_000 || wire.PayloadBytes != 9_000 ||
		wire.FramesPerDatagram != 5.62 || wire.PayloadBytesPerFrame != 9.0 {
		t.Fatalf("mirror mismatch: %+v", wire)
	}
	if wire.AckRTTUS.Count != 3 {
		t.Fatalf("rtt sketch lost data: %+v", wire.AckRTTUS)
	}

	var back TransportStats
	strictDecodeInto(t, data, &back)
	if !reflect.DeepEqual(rec, back) {
		t.Fatalf("round trip drift:\n got %+v\nwant %+v", back, rec)
	}
}

// strictDecodeInto is strictDecode for the production structs: the
// encoder must not emit fields the decoder does not know either.
func strictDecodeInto(t *testing.T, data []byte, into any) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		t.Fatalf("self round trip: %v\nencoded: %s", err, data)
	}
}
