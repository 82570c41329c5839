// Command qb5000 is an interactive workload-forecasting controller: it
// ingests a query trace (a trace file, or a generated synthetic trace), runs
// the QB5000 pipeline, and prints the template catalog, cluster assignments,
// and arrival-rate forecasts.
//
// Usage:
//
//	qb5000 -trace queries.log -horizon 1h
//	qb5000 -workload bustracker -days 10 -horizon 1h -model ENSEMBLE
//	qb5000 -workload admissions -days 7 -dump admissions.log   # export a trace
//
// Trace lines are "timestamp<TAB>SQL" or "timestamp<TAB>count<TAB>SQL" with
// RFC3339 timestamps (see internal/tracefile):
//
//	2018-01-02T15:04:05Z	SELECT * FROM foo WHERE id = 7
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"qb5000"
	"qb5000/internal/failpoint"
	"qb5000/internal/fsx"
	"qb5000/internal/tracefile"
	"qb5000/internal/workload"
)

func main() {
	var (
		tracePath = flag.String("trace", "", "query trace file (timestamp<TAB>[count<TAB>]SQL per line)")
		wlName    = flag.String("workload", "", "generate a synthetic trace: admissions|bustracker|mooc|noisy")
		days      = flag.Int("days", 10, "days of synthetic trace to replay")
		// qb5000:durable
		dump    = flag.String("dump", "", "write the synthetic trace to this file instead of analyzing it")
		horizon = flag.Duration("horizon", time.Hour, "prediction horizon")
		model   = flag.String("model", "LR", "forecast model: LR|KR|ARMA|FNN|RNN|PSRNN|ENSEMBLE|HYBRID")
		seed    = flag.Int64("seed", 1, "random seed")
		shards  = flag.Int("shards", 1, "catalog lock stripes, rounded up to a power of two (0 = all cores, 1 = reproducible sequential IDs)")
		fpcache = flag.Int("fpcache", 0, "fingerprint-cache entries: repeated raw SQL skips parsing (0 = disabled)")
		topN    = flag.Int("top", 10, "templates to print")
		// qb5000:durable
		savePath = flag.String("save", "", "write a catalog snapshot to this file after ingesting (atomic + fsync)")
		loadPath = flag.String("load", "", "restore the catalog from a snapshot before ingesting")
		faults   = flag.String("failpoints", "", "arm fault-injection sites, e.g. fsx.rename=nth:1 (also "+failpoint.EnvVar+")")
	)
	flag.Parse()

	if *faults != "" {
		if err := failpoint.Parse(*faults); err != nil {
			fatal(err)
		}
	} else if err := failpoint.ParseEnv(); err != nil {
		fatal(err)
	}

	if *dump != "" {
		if *wlName == "" {
			fatal(fmt.Errorf("-dump requires -workload"))
		}
		if err := dumpTrace(*wlName, *seed, *days, *dump); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *dump)
		return
	}

	cfg := qb5000.Config{
		Model:    *model,
		Horizons: []time.Duration{*horizon},
		Seed:     *seed,
		Shards:   *shards,

		FingerprintCacheSize: *fpcache,
	}
	var f *qb5000.Forecaster
	if *loadPath != "" {
		var err error
		f, err = qb5000.LoadFile(cfg, *loadPath)
		if err != nil {
			fatal(err)
		}
	} else {
		f = qb5000.New(cfg)
	}

	var last time.Time
	switch {
	case *tracePath != "":
		if err := ingestFile(f, *tracePath); err != nil {
			fatal(err)
		}
		last = f.Controller().LastSeen()
	case *wlName != "":
		wl := pick(*wlName, *seed)
		if wl == nil {
			fatal(fmt.Errorf("unknown workload %q", *wlName))
		}
		to := wl.Start.Add(time.Duration(*days) * 24 * time.Hour)
		if to.After(wl.End) {
			to = wl.End
		}
		err := wl.Replay(wl.Start, to, 5*time.Minute, func(ev workload.Event) error {
			return f.ObserveBatch(ev.SQL, ev.At, ev.Count)
		})
		if err != nil {
			fatal(err)
		}
		last = to
	default:
		if *loadPath == "" {
			flag.Usage()
			os.Exit(2)
		}
		last = f.Controller().LastSeen()
	}

	if *savePath != "" {
		// Atomic, fsynced replace: a crash mid-save must never destroy the
		// previous snapshot (the durable analyzer rejects a bare os.Create
		// here).
		if err := f.SaveFile(*savePath); err != nil {
			fatal(err)
		}
		fmt.Printf("snapshot written to %s\n", *savePath)
	}

	if err := f.Maintain(context.Background(), last); err != nil {
		fatal(err)
	}

	st := f.Stats()
	fmt.Printf("queries: %d   templates: %d   clusters: %d   tracked: %d   parse errors: %d\n\n",
		st.TotalQueries, st.Templates, st.Clusters, st.TrackedClusters, st.ParseErrors)

	fmt.Printf("top templates:\n")
	ts := f.Templates()
	for i, t := range ts {
		if i >= *topN {
			break
		}
		fmt.Printf("  [%4d] %9d calls  %.90s\n", t.ID, t.Count, t.SQL)
	}
	fmt.Println()

	preds, err := f.Forecast(*horizon)
	if err != nil {
		fatal(fmt.Errorf("forecast: %w (not enough history for the chosen horizon?)", err))
	}
	fmt.Printf("forecast %v ahead (per prediction interval):\n", *horizon)
	for _, p := range preds {
		fmt.Printf("  cluster %d: %.1f queries/template (%d templates, total %.1f)\n",
			p.ClusterID, p.PerTemplateRate, len(p.Templates), p.TotalRate)
		for i, sql := range p.Templates {
			if i >= 3 {
				fmt.Printf("      … and %d more\n", len(p.Templates)-3)
				break
			}
			fmt.Printf("      %.80s\n", sql)
		}
	}
}

// dumpTrace exports a synthetic workload as a trace file, atomically: a
// partial export must never replace a previous complete one.
//
// qb5000:durable path
func dumpTrace(name string, seed int64, days int, path string) error {
	wl := pick(name, seed)
	if wl == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	to := wl.Start.Add(time.Duration(days) * 24 * time.Hour)
	if to.After(wl.End) {
		to = wl.End
	}
	return fsx.WriteAtomic(path, func(w io.Writer) error {
		tw := tracefile.NewWriter(w)
		err := wl.Replay(wl.Start, to, 5*time.Minute, func(ev workload.Event) error {
			return tw.Write(tracefile.Entry{At: ev.At, Count: ev.Count, SQL: ev.SQL})
		})
		if err != nil {
			return err
		}
		return tw.Flush()
	})
}

func ingestFile(f *qb5000.Forecaster, path string) error {
	file, err := os.Open(path)
	if err != nil {
		return err
	}
	defer file.Close()
	res, err := f.ObserveTrace(file)
	if res.Rejected > 0 {
		fmt.Fprintf(os.Stderr, "warning: %s: %d queries rejected (unparseable)\n", path, res.Rejected)
	}
	return err
}

func pick(name string, seed int64) *workload.Workload {
	switch name {
	case "admissions":
		return workload.Admissions(seed)
	case "bustracker":
		return workload.BusTracker(seed)
	case "mooc":
		return workload.MOOC(seed)
	case "noisy":
		return workload.Noisy(seed)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "qb5000: %v\n", err)
	os.Exit(1)
}
