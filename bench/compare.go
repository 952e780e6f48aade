package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// ResultSet is what `lmeperf -json` writes and `-compare` reads: the
// environment block every result carries, and the results of every pass
// that ran (several per workload when -runs > 1).
type ResultSet struct {
	Env     map[string]string `json:"env"`
	Results []Result          `json:"results"`
}

// LoadResultSet reads a result-set file.
func LoadResultSet(path string) (ResultSet, error) {
	var rs ResultSet
	data, err := os.ReadFile(path)
	if err != nil {
		return rs, err
	}
	if err := json.Unmarshal(data, &rs); err != nil {
		return rs, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// values collects one end-to-end metric of one workload over the
// untraced results of a set.
func (rs ResultSet) values(workload, metric string) []float64 {
	var xs []float64
	for _, r := range rs.Results {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Traced {
			xs = append(xs, v)
		}
	}
	return xs
}

// spread is the interquartile range of xs as a share of its median (the
// exclusive method of Python's statistics.quantiles(xs, n=4), which the
// driver uses); 0 with fewer than two values.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	q := func(k int) float64 { // k-th quartile
		pos := float64(k) * float64(len(s)+1) / 4
		i := min(max(int(pos), 1), len(s)-1)
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}

// Row is the verdict on one workload × end-to-end metric.
type Row struct {
	Workload, Metric string
	A, B             float64 // medians
	// WorseBy is how much worse B's median is than A's, as a share of A's
	// (negative: better).
	WorseBy float64
	Spread  float64 // the wider of the two sets' spreads
	Bound   float64
	// Status is "ok", "regressed" or "unresolved" (the run-to-run spread
	// is wider than the bound, so the medians decide nothing).
	Status string
}

// Compare judges set B against set A, row by row, by each metric's bound.
func Compare(a, b ResultSet) []Row {
	var rows []Row
	for _, w := range Workloads {
		for _, m := range EndToEnd {
			xa, xb := a.values(w.Name, m.Name), b.values(w.Name, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			row := Row{Workload: w.Name, Metric: m.Name, A: median(xa), B: median(xb), Bound: m.Bound}
			row.Spread = max(spread(xa), spread(xb))
			sign := 1.0
			if m.Better == "higher" {
				sign = -1
			}
			if row.A != 0 {
				row.WorseBy = sign * (row.B - row.A) / row.A
			}
			// Every run of B better than every run of A settles a row the
			// spread would otherwise leave open.
			allBetter := slices.Max(scaled(xb, sign)) < slices.Min(scaled(xa, sign))
			switch {
			case row.Spread > m.Bound && !allBetter:
				row.Status = "unresolved"
			case row.WorseBy > m.Bound:
				row.Status = "regressed"
			default:
				row.Status = "ok"
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// scaled multiplies xs by sign, so "worse" is always "larger".
func scaled(xs []float64, sign float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = sign * x
	}
	return out
}

// PrintComparison writes the rows as a table and returns how many
// regressed.
func PrintComparison(w io.Writer, rows []Row) (regressed int) {
	fmt.Fprintf(w, "%-16s %-20s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "A median", "B median", "worse by", "spread", "bound", "status")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %-20s %14.4f %14.4f %+8.1f%% %7.1f%% %6.0f%%  %s\n",
			r.Workload, r.Metric, r.A, r.B, r.WorseBy*100, r.Spread*100, r.Bound*100, r.Status)
		if r.Status == "regressed" {
			regressed++
		}
	}
	return regressed
}
