// Command lmeperf is the repository's benchmark: six pinned workloads,
// an untraced pass for the end-to-end metrics, a traced pass for the
// per-layer metrics, and a correctness gate, in one command.
//
//	go run ./cmd/lmeperf                      # from bench/: all workloads, both passes
//	go run ./cmd/lmeperf -workload live_udp_sat -trace 1
//	go run ./cmd/lmeperf -runs 3 -trace 0 -json out/a.json
//	go run ./cmd/lmeperf -compare out/a.json out/b.json
//
// With -workload and -trace the command runs one pass and prints, as the
// last line of standard output, the JSON object the benchmark driver
// reads (BENCHMARK.json at the repository root declares the contract).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"

	"lme/bench"
)

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload (default: all six)")
		seed     = flag.Uint64("seed", 1, "seed every input of the workloads is generated from")
		seconds  = flag.Float64("seconds", bench.RunSeconds, "measured budget of one pass, in seconds")
		trace    = flag.Int("trace", -1, "0: untraced pass (end-to-end metrics); 1: traced pass (per-layer metrics); -1: both")
		runs     = flag.Int("runs", 1, "repeat every pass this many times, on seeds seed, seed+1, …")
		jsonOut  = flag.String("json", "", "write the result set to this file (the input of -compare)")
		outDir   = flag.String("out", "out", "directory for trace_<workload>.json of the traced pass")
		compare  = flag.Bool("compare", false, "compare two result sets: lmeperf -compare A.json B.json")
	)
	flag.Parse()

	if *compare {
		os.Exit(runCompare(flag.Args()))
	}
	// One process, at most four cores: the sizing every number assumes.
	workers := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(workers)

	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range bench.Workloads {
			names = append(names, w.Name)
		}
	}
	passes := []bool{false, true}
	if *trace >= 0 {
		passes = []bool{*trace == 1}
	}
	// The driver's form: one workload, one pass, the result on the last line.
	driver := *workload != "" && *trace >= 0 && *runs == 1

	env := environment(workers, !driver)
	if !driver {
		fmt.Println("lmeperf environment:")
		for _, k := range envKeys {
			fmt.Printf("  %-10s %s\n", k, env[k])
		}
	}
	set := bench.ResultSet{Env: env}
	failed := false
	for _, name := range names {
		for run := 0; run < *runs; run++ {
			digest := "" // of this workload and seed, whichever pass ran first
			for _, traced := range passes {
				opt := bench.Options{Seed: *seed + uint64(run), Seconds: *seconds, Traced: traced, OutDir: *outDir, Log: os.Stdout}
				res, err := bench.Run(name, opt)
				if err != nil {
					fmt.Fprintln(os.Stderr, "lmeperf:", err)
					os.Exit(1)
				}
				// Untraced and traced pass must agree on the deterministic
				// results: the decorators are transparent.
				if digest != "" && res.Digest != digest {
					res.Correct = false
					res.Problems = append(res.Problems, fmt.Sprintf("digest %s differs from the other pass's %s", res.Digest, digest))
				}
				digest = res.Digest
				printResult(res)
				set.Results = append(set.Results, res)
				failed = failed || !res.Correct
				if driver {
					printDriverLine(res)
				}
			}
		}
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(set, "", " ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "lmeperf:", err)
			os.Exit(1)
		}
	}
	// The driver reads the verdict from the result line; everyone else
	// from the exit code.
	if failed && !driver {
		fmt.Fprintln(os.Stderr, "lmeperf: correctness gate failed")
		os.Exit(1)
	}
}

// envKeys orders the environment block.
var envKeys = []string{"commit", "go", "nproc", "gomaxprocs", "kernel", "network"}

// environment is the block every result set carries. The commit is asked
// of git only when withCommit is set: under the driver the checkout is not
// a repository and the benchmark starts no process.
func environment(workers int, withCommit bool) map[string]string {
	env := map[string]string{
		"commit":     "unknown",
		"go":         runtime.Version(),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(workers),
		"kernel":     "unknown",
		"network":    "loopback, not a real link; clients are goroutines of this one process",
	}
	if withCommit {
		if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
			env["commit"] = strings.TrimSpace(string(out))
		}
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b strings.Builder
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b.WriteByte(byte(c))
		}
		env["kernel"] = b.String()
	}
	return env
}

// printResult prints one pass: every metric by name with its unit.
func printResult(res bench.Result) {
	pass, list := "untraced", bench.EndToEnd
	if res.Traced {
		pass, list = "traced", bench.PerLayer
	}
	verdict := "correct"
	if !res.Correct {
		verdict = "INCORRECT"
	}
	fmt.Printf("%s  seed=%d  %s pass  attempted=%d failed=%d  %s", res.Workload, res.Seed, pass, res.Attempted, res.Failed, verdict)
	if res.Digest != "" {
		fmt.Printf("  digest=%s", res.Digest)
	}
	fmt.Println()
	for _, p := range res.Problems {
		fmt.Printf("  PROBLEM: %s\n", p)
	}
	for _, m := range list {
		fmt.Printf("  %-32s %16.4f %s\n", m.Name, res.Metrics[m.Name], m.Unit)
	}
	for _, n := range res.Notes {
		fmt.Printf("  note: %s\n", n)
	}
}

// printDriverLine prints the one-line JSON object of the driver contract.
func printDriverLine(res bench.Result) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	list := bench.EndToEnd
	if res.Traced {
		list = bench.PerLayer
	}
	for _, m := range list {
		line.Metrics[m.Name] = value{res.Metrics[m.Name], m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lmeperf:", err)
		os.Exit(1)
	}
	fmt.Println(string(data))
}

func runCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: lmeperf -compare A.json B.json")
		return 2
	}
	a, err := bench.LoadResultSet(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "lmeperf:", err)
		return 2
	}
	b, err := bench.LoadResultSet(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "lmeperf:", err)
		return 2
	}
	if n := bench.PrintComparison(os.Stdout, bench.Compare(a, b)); n > 0 {
		fmt.Fprintf(os.Stderr, "lmeperf: %d rows regressed\n", n)
		return 1
	}
	return 0
}
