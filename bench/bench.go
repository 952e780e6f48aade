package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"syscall"
	"time"
)

// Options configures one pass over one workload.
type Options struct {
	// Seed generates every input of the workload: think times, positions,
	// mover sets, crash victims, replica seeds. Same seed, same inputs.
	Seed uint64
	// Seconds is the measured budget of the pass (warm-up, set-up and the
	// correctness checks come on top).
	Seconds float64
	// Traced selects the traced pass (per-layer metrics) instead of the
	// untraced one (end-to-end metrics).
	Traced bool
	// OutDir receives trace_<workload>.json after a traced pass; empty
	// keeps the raw spans in memory only.
	OutDir string
	// Log receives human-readable progress and detail lines (nil = none).
	Log io.Writer
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// Result is the outcome of one pass.
type Result struct {
	Workload string `json:"workload"`
	Traced   bool   `json:"traced"`
	Seed     uint64 `json:"seed"`
	// Correct is the correctness gate's verdict; Problems says why not.
	Correct  bool     `json:"correct"`
	Problems []string `json:"problems,omitempty"`
	// Attempted and Failed count operations: Acquire calls on live_*,
	// hungry episodes on sim_*, fleet jobs on tables_full.
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	// Metrics holds every end-to-end metric (untraced pass) or every
	// per-layer metric (traced pass) by catalogue name.
	Metrics map[string]float64 `json:"metrics"`
	// Notes are the informational extras the issue asks for next to the
	// metrics: sample counts, the highest reportable percentile.
	Notes []string `json:"notes,omitempty"`
	// Digest is the deterministic result digest of a sim workload.
	Digest string `json:"digest,omitempty"`
}

func (r *Result) problemf(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *Result) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// finish fills every catalogue metric of the pass that the workload did
// not set with 0 (a per-layer metric that does not apply), and settles
// Correct. An end-to-end metric must never be missing or 0: that is a
// defect of the benchmark and fails the pass.
func (r *Result) finish() {
	list := EndToEnd
	if r.Traced {
		list = PerLayer
	}
	for _, m := range list {
		v, ok := r.Metrics[m.Name]
		if !r.Traced && (!ok || v <= 0) {
			r.problemf("end-to-end metric %s missing or not positive (%v)", m.Name, v)
		}
		if !ok {
			r.Metrics[m.Name] = 0
		}
	}
	if r.Attempted < 1 {
		r.problemf("no operation attempted")
	}
	r.Correct = len(r.Problems) == 0 && r.Failed == 0
}

// Run executes one pass of the named workload.
func Run(name string, opt Options) (Result, error) {
	if opt.Seconds <= 0 {
		opt.Seconds = RunSeconds
	}
	var (
		res Result
		err error
	)
	if s, ok := liveSpecs[name]; ok {
		res, err = runLive(s, opt)
	} else if s, ok := simSpecs[name]; ok {
		res, err = runSim(s, opt)
	} else if name == "tables_full" {
		res, err = runTables(opt)
	} else {
		return Result{}, fmt.Errorf("bench: unknown workload %q", name)
	}
	if err != nil {
		return Result{}, fmt.Errorf("%s: %w", name, err)
	}
	res.Workload, res.Traced, res.Seed = name, opt.Traced, opt.Seed
	res.finish()
	return res, nil
}

// setupTime reduces the set-up samples of a pass to setup_s: the fastest
// one. A set-up takes milliseconds and, on the live workloads, races the
// goroutines it has just started for the cores, so its median swings by a
// factor of two from process to process while its minimum holds within
// ±15 %; work added to the set-up path moves the minimum all the same.
func setupTime(res *Result, samples []float64) float64 {
	res.notef("set-up: fastest of %d samples; median %.4f s, slowest %.4f s", len(samples), median(samples), slices.Max(samples))
	return slices.Min(samples)
}

// cpuSeconds reads the process's user+sys CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// heapAfterGC collects garbage and reads the live heap. This is what
// heap_bytes_per_node is built from: an un-collected HeapAlloc swings
// with where the last GC cycle happened to fall.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// rtProbe measures the Go runtime over a window of the traced pass.
type rtProbe struct {
	mallocs uint64
	numGC   uint32
	gcCPU   float64
	peak    uint64

	stopCh chan struct{}
	wg     sync.WaitGroup
}

const (
	metricGCCPU     = "/cpu/classes/gc/total:cpu-seconds"
	metricHeapBytes = "/memory/classes/heap/objects:bytes"
)

func readMetric(name string) metrics.Value {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value
}

// startRuntimeProbe snapshots the runtime counters and starts sampling
// the heap every 50 ms; stop ends the sampler and returns the deltas.
func startRuntimeProbe() *rtProbe {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p := &rtProbe{mallocs: ms.Mallocs, numGC: ms.NumGC, stopCh: make(chan struct{})}
	if v := readMetric(metricGCCPU); v.Kind() == metrics.KindFloat64 {
		p.gcCPU = v.Float64()
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			if v := readMetric(metricHeapBytes); v.Kind() == metrics.KindUint64 {
				p.peak = max(p.peak, v.Uint64())
			}
			select {
			case <-tick.C:
			case <-p.stopCh:
				return
			}
		}
	}()
	return p
}

// rtDelta is what the runtime did during a probe's window.
type rtDelta struct {
	mallocs    uint64
	gcCPU      float64
	pauseP99US float64
	peakMB     float64
}

func (p *rtProbe) stop() rtDelta {
	close(p.stopCh)
	p.wg.Wait()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	d := rtDelta{mallocs: ms.Mallocs - p.mallocs, peakMB: float64(p.peak) / (1 << 20)}
	if v := readMetric(metricGCCPU); v.Kind() == metrics.KindFloat64 {
		d.gcCPU = v.Float64() - p.gcCPU
	}
	// PauseNs is a ring of the last 256 pauses; a longer window reports
	// the p99 of its last 256.
	cycles := min(ms.NumGC-p.numGC, uint32(len(ms.PauseNs)))
	pauses := make([]int64, 0, cycles)
	for i := uint32(0); i < cycles; i++ {
		pauses = append(pauses, int64(ms.PauseNs[(ms.NumGC-i+255)%256]))
	}
	slices.Sort(pauses)
	d.pauseP99US = float64(percentile(pauses, 0.99)) / 1e3
	return d
}

// setRuntimeMetrics writes the runtime.* per-layer metrics.
func setRuntimeMetrics(m map[string]float64, d rtDelta, ops, cpu float64) {
	if ops > 0 {
		m["runtime.allocs_per_op"] = float64(d.mallocs) / ops
	}
	if cpu > 0 {
		m["runtime.gc_cpu_share"] = d.gcCPU / cpu
	}
	m["runtime.gc_pause_p99_us"] = d.pauseP99US
	m["runtime.heap_peak_mb"] = d.peakMB
}

// traceFile is the layout of out/trace_<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Note     string `json:"note"`
	Dropped  uint64 `json:"dropped_spans"`
	Spans    []Span `json:"spans"`
}

// writeTrace writes the raw spans of a traced pass, when an output
// directory was asked for.
func writeTrace(opt Options, workload, note string, t *tracer) error {
	if opt.OutDir == "" {
		return nil
	}
	if err := os.MkdirAll(opt.OutDir, 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	path := filepath.Join(opt.OutDir, "trace_"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(traceFile{Workload: workload, Seed: opt.Seed, Note: note, Dropped: t.dropped, Spans: t.spans}); err != nil {
		f.Close()
		return fmt.Errorf("trace output %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace output %s: %w", path, err)
	}
	opt.logf("  raw spans: %d written to %s (%d dropped past the cap)", len(t.spans), path, t.dropped)
	return nil
}
