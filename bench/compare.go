package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// endToEnd lists the end-to-end metrics in report order with the relative
// worsening that counts as a regression. Every timing sits at 0.25, the
// widest the benchmark contract allows and three times the 5-8 % that ten runs
// of one commit spread on the reference box (README.md, "How steady it is"),
// whose neighbours slow it further for a minute or two now and then; a
// tighter bound would turn that into false alarms. BENCHMARK.json at the repository
// root carries the same table for the benchmark driver; bench_test.go keeps
// the two in step.
var endToEnd = []struct {
	name   string
	unit   string
	higher bool // higher is better
	bound  float64
}{
	{"setup_s", "s", false, 0.25},
	{"observe_qps", "lines/s", true, 0.25},
	{"observe_cpu_us", "us/line", false, 0.25},
	{"observe_p50_ms", "ms", false, 0.25},
	{"observe_p99_ms", "ms", false, 0.25},
	{"forecast_mean_ms", "ms", false, 0.25},
	{"forecast_p80_ms", "ms", false, 0.25},
	{"maintain_s", "s", false, 0.25},
	{"restart_s", "s", false, 0.25},
	{"rss_mb", "MB", false, 0.10},
	{"snapshot_mb", "MB", false, 0.02},
	{"forecast_logmse", "1", false, 0.10},
}

// loadRuns reads an -out file and groups its untraced, correct runs'
// values by workload and metric.
func loadRuns(path string) (map[string]map[string][]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file runFile
	if err := json.Unmarshal(raw, &file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]map[string][]float64)
	for _, res := range file.Runs {
		if res.Traced {
			continue
		}
		if !res.Correct {
			return nil, fmt.Errorf("%s: a %s run was not correct", path, res.Workload)
		}
		if out[res.Workload] == nil {
			out[res.Workload] = make(map[string][]float64)
		}
		for _, m := range res.Metrics {
			out[res.Workload][m.Name] = append(out[res.Workload][m.Name], m.Value)
		}
	}
	return out, nil
}

// spread is a set's run-to-run range as a share of its median.
func spread(xs []float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return (hi - lo) / median(xs)
}

// verdict judges set b against set a for one metric: "unresolved" when either
// set's own spread is wider than the bound, "differ" when the medians are
// further apart than the bound, "agree" otherwise.
func verdict(a, b []float64, bound float64) (ratio float64, v string) {
	ratio = median(b) / median(a)
	switch {
	case spread(a) > bound || spread(b) > bound:
		v = "unresolved"
	case math.Abs(ratio-1) > bound:
		v = "differ"
	default:
		v = "agree"
	}
	return ratio, v
}

var errDiffer = errors.New("the two sets differ")

// compareFiles prints, per workload and end-to-end metric, both sets'
// medians, their ratio with its base, the bound and the verdict. It returns
// errDiffer when any pairing differs.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := loadRuns(pathA)
	if err != nil {
		return err
	}
	b, err := loadRuns(pathB)
	if err != nil {
		return err
	}
	differ := false
	fmt.Fprintf(w, "%-14s %-16s %14s %14s %9s %6s  %s\n", "workload", "metric", "a (median)", "b (median)", "b/a", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range endToEnd {
			va, vb := a[wl.name][m.name], b[wl.name][m.name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ratio, v := verdict(va, vb, m.bound)
			differ = differ || v == "differ"
			fmt.Fprintf(w, "%-14s %-16s %14.4f %14.4f %9.4f %6.2f  %s (n=%d,%d; base a=%.4f %s)\n",
				wl.name, m.name, median(va), median(vb), ratio, m.bound, v, len(va), len(vb), median(va), m.unit)
		}
	}
	if differ {
		return errDiffer
	}
	return nil
}
