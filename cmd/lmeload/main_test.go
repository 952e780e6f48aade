package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"lme/internal/loadgen"
	"lme/internal/telemetry"
)

func TestBuildGraph(t *testing.T) {
	cases := []struct {
		topo     string
		n        int
		wantName string
		wantN    int
	}{
		{"ring", 8, "ring(8)", 8},
		{"line", 5, "line(5)", 5},
		{"clique", 4, "clique(4)", 4},
		{"grid", 10, "grid(3x3)", 9}, // nearest square not exceeding n
		{"grid", 16, "grid(4x4)", 16},
	}
	for _, c := range cases {
		g, name, err := buildGraph(c.topo, c.n)
		if err != nil {
			t.Errorf("buildGraph(%q, %d): %v", c.topo, c.n, err)
			continue
		}
		if name != c.wantName {
			t.Errorf("buildGraph(%q, %d) name = %q, want %q", c.topo, c.n, name, c.wantName)
		}
		if g.N() != c.wantN {
			t.Errorf("buildGraph(%q, %d) nodes = %d, want %d", c.topo, c.n, g.N(), c.wantN)
		}
		if !g.Connected() {
			t.Errorf("buildGraph(%q, %d) built a disconnected graph", c.topo, c.n)
		}
	}
	if _, _, err := buildGraph("torus", 8); err == nil {
		t.Error("buildGraph(torus) accepted an unknown topology")
	}
	if _, _, err := buildGraph("ring", 1); err == nil {
		t.Error("buildGraph(ring, 1) accepted a single node")
	}
}

// loadReportMirror pins the lme/load/v3 document: every JSON key the
// report emits must appear here, and decoding with DisallowUnknownFields
// fails the test when a field is added without bumping (or at least
// consciously extending) the schema. Nested documents carry their own
// schemas and are held opaque.
type loadReportMirror struct {
	Schema    string `json:"schema"`
	Algorithm string `json:"algorithm"`
	Topology  string `json:"topology"`
	Seed      uint64 `json:"seed"`
	DurMS     int64  `json:"duration_ms"`

	Nodes     int     `json:"nodes"`
	Clients   int     `json:"clients"`
	WallMS    float64 `json:"wall_ms"`
	Transport string  `json:"transport"`

	Acquisitions uint64  `json:"acquisitions"`
	AcqPerSec    float64 `json:"acq_per_sec"`

	Grant       json.RawMessage `json:"grant_sketch"`
	GrantP50US  int64           `json:"grant_p50_us"`
	GrantP95US  int64           `json:"grant_p95_us"`
	GrantP99US  int64           `json:"grant_p99_us"`
	GrantMaxUS  int64           `json:"grant_max_us"`
	GrantMeanUS int64           `json:"grant_mean_us"`

	ExpiredLeases uint64 `json:"expired_leases"`
	Violations    int    `json:"violations"`

	MessagesSent   uint64  `json:"messages_sent"`
	PerAcquisition float64 `json:"msgs_per_acquisition"`
	NodesServed    int     `json:"nodes_served"`

	BytesPerAcq     float64 `json:"bytes_per_acq"`
	DatagramsPerAcq float64 `json:"datagrams_per_acq"`

	TransportStats json.RawMessage `json:"transport_stats"`
}

// TestLoadSchemaV3Golden round-trips a fully populated report through
// JSON and asserts the schema tag plus the v2 wire-cost fields survive
// with no unknown keys — the cross-version compatibility contract for
// any consumer parsing lmeload -json output.
func TestLoadSchemaV3Golden(t *testing.T) {
	if LoadSchema != "lme/load/v3" {
		t.Fatalf("LoadSchema = %q — update the golden mirror for the new version", LoadSchema)
	}
	rep := report{
		Schema:    LoadSchema,
		Algorithm: "alg2",
		Topology:  "ring(64)",
		Seed:      7,
		DurMS:     2000,
		Result: loadgen.Result{
			Nodes:           64,
			Clients:         64,
			WallMS:          2001.5,
			Transport:       "udp",
			Acquisitions:    1200,
			AcqPerSec:       599.6,
			MessagesSent:    9000,
			PerAcquisition:  7.5,
			NodesServed:     64,
			BytesPerAcq:     812.25,
			DatagramsPerAcq: 6.4,
			TransportStats:  &telemetry.TransportStats{Schema: telemetry.Schema, Kind: "udp"},
		},
	}
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	var got loadReportMirror
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("lme/load/v3 document has a key the mirror does not pin: %v\n%s", err, blob)
	}
	if got.Schema != "lme/load/v3" {
		t.Errorf("schema %q, want lme/load/v3", got.Schema)
	}
	if got.BytesPerAcq != 812.25 || got.DatagramsPerAcq != 6.4 {
		t.Errorf("wire-cost fields bytes_per_acq=%v datagrams_per_acq=%v, want 812.25 / 6.4",
			got.BytesPerAcq, got.DatagramsPerAcq)
	}
	if len(got.TransportStats) == 0 {
		t.Error("transport_stats missing from the document")
	}
}
