package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"qb5000/internal/cluster"
	"qb5000/internal/forecast"
	"qb5000/internal/preprocess"
	"qb5000/internal/sqlparse"
	"qb5000/internal/workload"
)

func init() {
	register("table1", "Sample workloads — trace summaries (Table 1)", table1)
	register("table2", "Workload reduction: queries → templates → clusters (Table 2)", table2)
	register("table3", "Forecasting model properties (Table 3)", table3)
	register("table4", "Computation & storage overhead per component (Table 4)", table4)
}

// tableSpan picks the replay slice and emission step for the summary tables.
func tableSpan(w *workload.Workload, quick bool) (from, to time.Time, step time.Duration) {
	from, to = w.Start, w.End
	step = time.Hour
	if quick {
		if to.Sub(from) > 14*24*time.Hour {
			to = from.Add(14 * 24 * time.Hour)
		}
	}
	return from, to, step
}

func table1(opt Options, w io.Writer) error {
	fmt.Fprintf(w, "%-12s %-12s %8s %8s %14s %10s %10s %10s %10s\n",
		"workload", "dbms", "tables", "days", "queries/day", "SELECT%", "INSERT%", "UPDATE%", "DELETE%")
	for _, wl := range traces(opt.seed()) {
		from, to, step := tableSpan(wl, opt.Quick)
		pre, err := replayInto(wl, from, to, step, opt.seed())
		if err != nil {
			return err
		}
		st := pre.Stats()
		days := to.Sub(from).Hours() / 24
		pct := func(t sqlparse.StatementType) float64 {
			if st.TotalQueries == 0 {
				return 0
			}
			return 100 * float64(st.ByType[t]) / float64(st.TotalQueries)
		}
		fmt.Fprintf(w, "%-12s %-12s %8d %8.0f %14.0f %9.1f%% %9.1f%% %9.1f%% %9.1f%%\n",
			wl.Name, wl.DBMS, wl.Tables, days, float64(st.TotalQueries)/days,
			pct(sqlparse.StmtSelect), pct(sqlparse.StmtInsert),
			pct(sqlparse.StmtUpdate), pct(sqlparse.StmtDelete))
	}
	return nil
}

func table2(opt Options, w io.Writer) error {
	fmt.Fprintf(w, "%-12s %14s %12s %10s %16s\n",
		"workload", "total queries", "templates", "clusters", "reduction ratio")
	for _, wl := range traces(opt.seed()) {
		from, to, step := tableSpan(wl, opt.Quick)
		ct, err := buildClusters(wl, from, to, step, 0.8, cluster.ArrivalRate, opt.seed())
		if err != nil {
			return err
		}
		st := ct.pre.Stats()
		nClusters := ct.clu.Len()
		ratio := 0.0
		if nClusters > 0 {
			ratio = float64(st.TotalQueries) / float64(nClusters)
		}
		fmt.Fprintf(w, "%-12s %14d %12d %10d %15.0fx\n",
			wl.Name, st.TotalQueries, st.NumTemplates, nClusters, ratio)
	}
	return nil
}

func table3(_ Options, w io.Writer) error {
	props := forecast.ModelProperties()
	fmt.Fprintf(w, "%-8s %8s %8s %8s\n", "model", "linear", "memory", "kernel")
	for _, name := range []string{"LR", "ARMA", "KR", "RNN", "FNN", "PSRNN"} {
		p := props[name]
		check := func(b bool) string {
			if b {
				return "yes"
			}
			return "no"
		}
		fmt.Fprintf(w, "%-8s %8s %8s %8s\n", name, check(p.Linear), check(p.Memory), check(p.Kernel))
	}
	return nil
}

func table4(opt Options, w io.Writer) error {
	wl := workload.BusTracker(opt.seed())
	days := 21
	if opt.Quick {
		days = 8
	}
	from := wl.Start
	to := from.Add(time.Duration(days) * 24 * time.Hour)

	// Pre-Processor: time per query and history storage per day.
	pre, err := replayInto(wl, from, to, 10*time.Minute, opt.seed())
	if err != nil {
		return err
	}
	// Measure templatization latency on a fresh sample of concrete queries.
	var samples []string
	sampleEnd := from.Add(2 * time.Hour)
	if err := wl.Replay(from, sampleEnd, time.Minute, func(ev workload.Event) error {
		samples = append(samples, ev.SQL)
		return nil
	}); err != nil {
		return err
	}
	if len(samples) > 5000 {
		samples = samples[:5000]
	}
	start := startStopwatch()
	pre2 := preprocess.New(preprocess.Options{Seed: opt.seed(), Shards: 1})
	for i, q := range samples {
		if _, err := pre2.Process(q, from.Add(time.Duration(i)*time.Second)); err != nil {
			return err
		}
	}
	perQuery := start.elapsed() / time.Duration(len(samples))
	histBytes := pre.HistoryBytes()

	// Clusterer: one daily update over the full catalog.
	clu := cluster.New(cluster.Options{Rho: 0.8, Seed: opt.seed()})
	start = startStopwatch()
	if _, err := clu.Update(context.Background(), to, pre.Templates()); err != nil {
		return err
	}
	clusterTime := start.elapsed()
	clusterBytes := pre.Len() * 16 // template→cluster assignment + id

	// Models: fit LR / RNN / KR on the top clusters at a one-hour interval.
	top := clu.Top(to, 24*time.Hour, 0.95, 5)
	hist := cluster.LogCenterMatrix(top, from, to, time.Hour)
	cfg := forecast.Config{Lag: 24, Horizon: 1, Outputs: len(top), Seed: opt.seed(), Epochs: rnnEpochs(opt)}

	type row struct {
		name  string
		train time.Duration
		size  int
	}
	var rows []row
	for _, name := range []string{"LR", "RNN", "KR"} {
		m, err := forecast.NewByName(name, cfg)
		if err != nil {
			return err
		}
		start = startStopwatch()
		if err := m.Fit(hist); err != nil {
			return err
		}
		rows = append(rows, row{name, start.elapsed(), m.SizeBytes()})
	}

	fmt.Fprintf(w, "component      computation                 storage\n")
	fmt.Fprintf(w, "Pre-Processor  %-27s %s\n",
		fmt.Sprintf("%.3fms/query", float64(perQuery.Microseconds())/1000),
		fmt.Sprintf("%.2fMB history (%d days)", float64(histBytes)/1e6, days))
	fmt.Fprintf(w, "Clusterer      %-27s %s\n",
		fmt.Sprintf("%.2fs/update (%d templates)", clusterTime.Seconds(), pre.Len()),
		fmt.Sprintf("%.1fKB", float64(clusterBytes)/1e3))
	for _, r := range rows {
		fmt.Fprintf(w, "%-5s model    %-27s %s\n", r.name,
			fmt.Sprintf("CPU:%.2fs/train", r.train.Seconds()),
			fmt.Sprintf("%.1fKB", float64(r.size)/1e3))
	}
	fmt.Fprintf(w, "(GPU column omitted: this reproduction trains on CPU only; see DESIGN.md)\n")
	return nil
}

// rnnEpochs scales neural-model training effort with the quick flag.
func rnnEpochs(opt Options) int {
	if opt.Quick {
		return 4
	}
	return 12
}
