// Command bench is the end-to-end benchmark of qb5000d. It builds the daemon
// from the checkout it runs in, drives it over loopback HTTP through its
// whole life — prime, maintain, forecast, restart, saturating ingest — checks
// what the daemon answered, and prints every metric by name. With -trace it
// also times every layer beneath the socket on the same input through an
// in-process twin. README.md documents the workloads, phases and metrics.
//
// Usage:
//
//	go run ./bench -workload all -seed 1 -out bench/out/run.json
//	go run ./bench -workload catalog-wide -trace
//	go run ./bench -compare bench/out/a.json bench/out/b.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
)

// outDir receives span files; -out usually points into it too.
var outDir = filepath.Join("bench", "out")

// result is one workload run as written to -out.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   int      `json:"seconds"`
	Traced    bool     `json:"traced"`
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	Metrics   []metric `json:"metrics"`
}

// runFile is the -out document: every run of every pass.
type runFile struct {
	Runs []result `json:"runs"`
}

func main() {
	if err := mainErr(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// normalizeTrace lets -trace be given bare or, as the benchmark contract
// passes it, followed by 0 or 1.
func normalizeTrace(args []string) []string {
	out := append([]string(nil), args...)
	for i := 0; i+1 < len(out); i++ {
		if (out[i] == "-trace" || out[i] == "--trace") && (out[i+1] == "0" || out[i+1] == "1") {
			out[i] = "-trace=" + out[i+1]
			out = append(out[:i+1], out[i+2:]...)
		}
	}
	return out
}

func mainErr(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames(), ", "))
		seed    = fs.Int64("seed", 1, "seed for every generated input")
		seconds = fs.Int("seconds", 10, "length of the timed window of the ingest and mixed phases")
		trace   = fs.Bool("trace", false, "traced run: per-layer metrics and a span file per workload instead of end-to-end metrics")
		out     = fs.String("out", "", "write every run's metrics to this JSON file")
		passes  = fs.Int("passes", 1, "repeat the selected workloads this many times (a set is 3 untraced passes)")
		compare = fs.Bool("compare", false, "compare two -out files given as arguments instead of running")
	)
	if err := fs.Parse(normalizeTrace(args)); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two -out files")
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown workload %q", *name)
	}
	// An interrupt cancels ctx, which kills the daemon under test.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	bin, buildS, err := buildDaemon(ctx)
	if err != nil {
		return err
	}
	// Placed after the build, which is welcome to every CPU.
	pl, err := place(*trace)
	if err != nil {
		return err
	}
	var file runFile
	var last result
	for pass := 0; pass < *passes; pass++ {
		for _, w := range selected {
			last = runWorkload(ctx, w, *seed, *seconds, *trace, bin, buildS, pl)
			file.Runs = append(file.Runs, last)
		}
	}
	if *out != "" {
		raw, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(*out, raw, 0o644); err != nil {
			return err
		}
	}
	// The benchmark contract reads one JSON object off the last line.
	line, err := json.Marshal(contractLine(last))
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	for _, res := range file.Runs {
		if !res.Correct {
			return fmt.Errorf("%s (seed %d) was not correct", res.Workload, res.Seed)
		}
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// runWorkload executes one run and prints its metrics. A run that is not
// correct reports no metrics.
func runWorkload(ctx context.Context, w workload, seed int64, seconds int, traced bool, bin string, buildS float64, pl placement) result {
	r := &run{w: w, seed: seed, seconds: seconds, buildS: buildS, place: pl}
	if traced {
		r.trace = newTracer()
	}
	if err := r.execute(ctx, bin); err != nil {
		r.problem("%v", err)
	}
	res := result{
		Workload: w.name, Seed: seed, Seconds: seconds, Traced: traced,
		Correct:   len(r.problems) == 0 && r.failed == 0,
		Attempted: r.attempted, Failed: r.failed, Problems: r.problems,
	}
	fmt.Printf("== %s seed=%d seconds=%d traced=%v: attempted=%d failed=%d correct=%v\n",
		w.name, seed, seconds, traced, res.Attempted, res.Failed, res.Correct)
	fmt.Printf("   phase seconds: %.1f\n", r.phaseS)
	for _, p := range r.problems {
		fmt.Printf("   problem: %s\n", p)
	}
	if !res.Correct {
		return res
	}
	if traced {
		// A traced run's end-to-end figures carry the tracing overhead;
		// they are printed for orientation and only the layers are reported.
		for _, m := range r.metrics {
			fmt.Printf("   (traced) %-28s %14.4f %-8s n=%d\n", m.Name, m.Value, m.Unit, m.N)
		}
		r.metrics = nil
		r.trace.layerMetrics(r)
		fmt.Printf("   %s\n", r.trace.explained())
		if path, err := r.trace.write(w.name); err != nil {
			fmt.Printf("   span file not written: %v\n", err)
		} else {
			fmt.Printf("   %d spans written to %s\n", len(r.trace.spans), path)
		}
	}
	res.Metrics = r.metrics
	for _, m := range res.Metrics {
		fmt.Printf("   %-37s %14.4f %-8s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
	return res
}

// contractLine renders a run the way the benchmark contract wants it.
func contractLine(res result) map[string]any {
	metrics := make(map[string]any, len(res.Metrics))
	for _, m := range res.Metrics {
		metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return map[string]any{
		"correct":   res.Correct,
		"attempted": max(res.Attempted, 1),
		"failed":    res.Failed,
		"metrics":   metrics,
	}
}
