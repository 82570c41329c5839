package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"qb5000/internal/cluster"
	"qb5000/internal/preprocess"
	"qb5000/internal/timeseries"
	"qb5000/internal/workload"
)

func init() {
	register("fig1", "Workload patterns: cycles, growth/spikes, evolution (Figure 1)", fig1)
	register("fig3", "Arrival-rate history of the largest BusTracker cluster (Figure 3)", fig3)
	register("fig5", "Cluster coverage of the k largest clusters (Figure 5)", fig5)
	register("fig6", "Day-over-day changes among the 5 largest clusters (Figure 6)", fig6)
}

func fig1(opt Options, w io.Writer) error {
	seed := opt.seed()

	// (a) BusTracker cycles: queries/min over 72 hours.
	bt := workload.BusTracker(seed + 1)
	total := timeseries.NewSeries(bt.Start, time.Minute)
	if err := bt.Replay(bt.Start, bt.Start.Add(72*time.Hour), time.Minute, func(ev workload.Event) error {
		total.Add(ev.At, float64(ev.Count))
		return nil
	}); err != nil {
		return err
	}
	fmt.Fprintln(w, "(a) BusTracker cycles — queries/min over 72h (hourly samples):")
	hourly := total.Aggregate(60)
	hourly.Scale(1.0 / 60)
	fprintSeries(w, "bustracker", hourly, 72)

	// (b) Admissions growth & spike: queries/min over the deadline week.
	ad := workload.Admissions(seed)
	wkStart := time.Date(2017, time.December, 9, 0, 0, 0, 0, time.UTC)
	wkEnd := time.Date(2017, time.December, 16, 0, 0, 0, 0, time.UTC)
	adTotal := timeseries.NewSeries(wkStart, time.Minute)
	if err := ad.Replay(wkStart, wkEnd, time.Minute, func(ev workload.Event) error {
		adTotal.Add(ev.At, float64(ev.Count))
		return nil
	}); err != nil {
		return err
	}
	fmt.Fprintln(w, "(b) Admissions growth & spike — queries/min leading to the Dec 15 deadline:")
	adHourly := adTotal.Aggregate(60)
	adHourly.Scale(1.0 / 60)
	fprintSeries(w, "admissions", adHourly, 56)

	// (c) MOOC evolution: accumulated distinct templates per day.
	mc := workload.MOOC(seed + 2)
	end := mc.End
	if opt.Quick {
		end = mc.Start.Add(30 * 24 * time.Hour)
	}
	pre := preprocess.New(preprocess.Options{Seed: seed, Shards: 1})
	day := mc.Start.Add(24 * time.Hour)
	fmt.Fprintln(w, "(c) MOOC evolution — accumulated distinct templates (per day):")
	if err := mc.Replay(mc.Start, end, time.Hour, func(ev workload.Event) error {
		for !ev.At.Before(day) {
			fmt.Fprintf(w, "mooc\t%s\t%d\n", day.Format("2006-01-02"), pre.Len())
			day = day.Add(24 * time.Hour)
		}
		_, err := pre.ProcessBatch(ev.SQL, ev.At, ev.Count)
		return err
	}); err != nil {
		return err
	}
	fmt.Fprintf(w, "mooc\t%s\t%d\n", end.Format("2006-01-02"), pre.Len())
	return nil
}

func fig3(opt Options, w io.Writer) error {
	bt := workload.BusTracker(opt.seed() + 1)
	days := 12
	if opt.Quick {
		days = 6
	}
	from := bt.Start
	to := from.Add(time.Duration(days) * 24 * time.Hour)
	ct, err := buildClusters(bt, from, to, 10*time.Minute, 0.8, cluster.ArrivalRate, opt.seed())
	if err != nil {
		return err
	}
	top := ct.clu.Top(ct.to, 24*time.Hour, 1.0, 1)
	if len(top) == 0 {
		return fmt.Errorf("no clusters formed")
	}
	big := top[0]
	center := cluster.CenterSeries(big, from, to, time.Hour)
	fmt.Fprintf(w, "largest cluster: %d templates\n", big.Size())
	fprintSeries(w, "center", center, 48)

	// Top four member templates by volume.
	type mem struct {
		t   *preprocess.Template
		vol int64
	}
	var members []mem
	for _, t := range big.Members {
		members = append(members, mem{t, t.Count})
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].vol != members[j].vol {
			return members[i].vol > members[j].vol
		}
		return members[i].t.ID < members[j].t.ID
	})
	for i, m := range members {
		if i >= 4 {
			break
		}
		s := cluster.CenterSeries(&cluster.Cluster{Members: map[int64]*preprocess.Template{m.t.ID: m.t}}, from, to, time.Hour)
		fmt.Fprintf(w, "query %d: %.60s...\n", i+1, m.t.SQL)
		fprintSeries(w, fmt.Sprintf("query%d", i+1), s, 24)
	}
	return nil
}

func fig5(opt Options, w io.Writer) error {
	fmt.Fprintf(w, "%-12s", "workload")
	for k := 1; k <= 5; k++ {
		fmt.Fprintf(w, "  top-%d", k)
	}
	fmt.Fprintln(w)
	for _, wl := range traces(opt.seed()) {
		cov, _, err := dailyCoverage(wl, opt, 0.8)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s", wl.Name)
		for k := 1; k <= 5; k++ {
			fmt.Fprintf(w, "  %.3f", cov[k])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "(values are the mean daily fraction of workload volume covered by the k largest clusters)")
	return nil
}

// dailyCoverage replays the workload with daily clustering updates and
// returns (a) the mean daily coverage for k=1..5 and (b) the histogram of
// day-over-day top-5 membership changes (for Figure 6).
func dailyCoverage(wl *workload.Workload, opt Options, rho float64) (map[int]float64, map[int]int, error) {
	from, to := wl.Start, wl.End
	if opt.Quick && to.Sub(from) > 14*24*time.Hour {
		to = from.Add(14 * 24 * time.Hour)
	}
	// Very long traces (Admissions spans 16 months) are summarized over
	// their final two months to bound runtime.
	if to.Sub(from) > 70*24*time.Hour {
		from = to.Add(-60 * 24 * time.Hour)
	}
	pre := preprocess.New(preprocess.Options{Seed: opt.seed(), Shards: 1})
	clu := cluster.New(cluster.Options{Rho: rho, Seed: opt.seed() + 1})

	covSum := make(map[int]float64)
	changes := make(map[int]int)
	days := 0
	var prevTop []int64

	next := from.Add(24 * time.Hour)
	endOfDay := func(at time.Time) error {
		if _, err := clu.Update(context.Background(), at, pre.Templates()); err != nil {
			return err
		}
		days++
		for k := 1; k <= 5; k++ {
			covSum[k] += clu.Coverage(k, at, 24*time.Hour)
		}
		var top []int64
		for _, cl := range clu.Clusters(at, 24*time.Hour) {
			if len(top) >= 5 {
				break
			}
			top = append(top, cl.ID)
		}
		if prevTop != nil {
			changes[setDiff(prevTop, top)]++
		}
		prevTop = top
		return nil
	}
	err := wl.Replay(from, to, time.Hour, func(ev workload.Event) error {
		for !ev.At.Before(next) {
			if err := endOfDay(next); err != nil {
				return err
			}
			next = next.Add(24 * time.Hour)
		}
		_, err := pre.ProcessBatch(ev.SQL, ev.At, ev.Count)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	if days == 0 {
		return nil, nil, fmt.Errorf("trace too short for daily coverage")
	}
	for k := 1; k <= 5; k++ {
		covSum[k] /= float64(days)
	}
	return covSum, changes, nil
}

// setDiff counts how many members of cur were not in prev.
func setDiff(prev, cur []int64) int {
	in := make(map[int64]bool, len(prev))
	for _, id := range prev {
		in[id] = true
	}
	n := 0
	for _, id := range cur {
		if !in[id] {
			n++
		}
	}
	return n
}

func fig6(opt Options, w io.Writer) error {
	fmt.Fprintf(w, "%-12s %8s %8s %8s %8s %8s\n", "workload", "0", "1", "2", "3", "4+")
	for _, wl := range traces(opt.seed()) {
		_, changes, err := dailyCoverage(wl, opt, 0.8)
		if err != nil {
			return err
		}
		total := 0
		for _, n := range changes {
			total += n
		}
		pct := func(k int) float64 {
			if total == 0 {
				return 0
			}
			n := changes[k]
			if k == 4 {
				for kk, c := range changes {
					if kk > 4 {
						n += c
					}
				}
			}
			return 100 * float64(n) / float64(total)
		}
		fmt.Fprintf(w, "%-12s %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n",
			wl.Name, pct(0), pct(1), pct(2), pct(3), pct(4))
	}
	fmt.Fprintln(w, "(percentage of days with N membership changes among the 5 largest clusters)")
	return nil
}
