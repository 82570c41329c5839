package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"qb5000"
	"qb5000/internal/tracefile"
)

func testCatalog(t *testing.T, n int) *catalog {
	t.Helper()
	cat, err := newCatalog(n)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestSameSeedSameBytes(t *testing.T) {
	cat := testCatalog(t, 48)
	tr := traffic{pool: 1024, bodies: 8, zipf: 0.7, freshShare: 0.2}
	render := func(seed int64) ([][]byte, []*body) {
		h := newHistory(cat, seed)
		return h.bodies(historyStart, historyStart.Add(3*time.Hour), time.Hour), tr.render(cat, seed)
	}
	h1, b1 := render(7)
	h2, b2 := render(7)
	h3, b3 := render(8)
	if len(h1) == 0 || len(b1) != tr.bodies {
		t.Fatalf("rendered %d history bodies and %d traffic bodies", len(h1), len(b1))
	}
	for i := range h1 {
		if !bytes.Equal(h1[i], h2[i]) {
			t.Errorf("history body %d differs between two renders of seed 7", i)
		}
	}
	for i := range b1 {
		if !bytes.Equal(b1[i].buf, b2[i].buf) {
			t.Errorf("traffic body %d differs between two renders of seed 7", i)
		}
	}
	if bytes.Equal(bytes.Join(h1, nil), bytes.Join(h3, nil)) {
		t.Error("history of seeds 7 and 8 is identical")
	}
	if bytes.Equal(b1[0].buf, b3[0].buf) {
		t.Error("traffic of seeds 7 and 8 is identical")
	}
}

// TestStampKeepsBodiesParseable re-stamps bodies the way a sender does and
// checks every line still parses, carries the new timestamp, and that fresh
// lines become raw SQL never rendered before while the others stay put.
func TestStampKeepsBodiesParseable(t *testing.T) {
	cat := testCatalog(t, 48)
	bodies := traffic{pool: 512, bodies: 4, freshShare: 0.5}.render(cat, 3)
	seen := make(map[string]bool)
	next := uint64(litFresh)
	for round := 0; round < 3; round++ {
		at := historyStart.Add(time.Duration(round) * 37 * time.Minute)
		for _, b := range bodies {
			before := readSQL(t, b.buf)
			b.stamp(at, &next)
			fresh := make(map[int]bool)
			for _, line := range b.fresh {
				fresh[int(line)] = true
			}
			lines := 0
			err := tracefile.Read(bytes.NewReader(b.buf), func(e tracefile.Entry) error {
				if !e.At.Equal(at) || e.Count != 1 {
					t.Errorf("line %d: at %v count %d, want %v count 1", lines, e.At, e.Count, at)
				}
				if fresh[lines] {
					if seen[e.SQL] {
						t.Errorf("fresh line %d repeats %q", lines, e.SQL)
					}
					seen[e.SQL] = true
				} else if e.SQL != before[lines] {
					t.Errorf("repeat line %d changed: %q -> %q", lines, before[lines], e.SQL)
				}
				if _, ok := cat.byTemplate[mustTemplate(t, e.SQL)]; !ok {
					t.Errorf("line %d is not a catalog shape: %q", lines, e.SQL)
				}
				lines++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if lines != linesPerRequest {
				t.Fatalf("body parses to %d lines, want %d", lines, linesPerRequest)
			}
		}
	}
}

func readSQL(t *testing.T, buf []byte) []string {
	t.Helper()
	obs, err := readBody(buf)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(obs))
	for i, o := range obs {
		out[i] = o.SQL
	}
	return out
}

func mustTemplate(t *testing.T, sql string) string {
	t.Helper()
	tmpl, _, err := qb5000.Templatize(sql)
	if err != nil {
		t.Fatal(err)
	}
	return tmpl
}

func TestPercentiles(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // 200..1, unsorted on purpose
	}
	if got := median(xs); got != 100.5 {
		t.Errorf("median = %v, want 100.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %v, want 2", got)
	}
	if got := mean([]float64{3, 1, 2, 6}); got != 3 {
		t.Errorf("mean of four = %v, want 3", got)
	}
	if !math.IsNaN(mean(nil)) || !math.IsNaN(median(nil)) {
		t.Error("a mean or median of no samples is a number")
	}
	if got, err := percentile(xs, 0.95); err != nil || got != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190 (ten samples beyond)", got, err)
	}
	if _, err := percentile(xs, 0.99); !errors.Is(err, errThinTail) {
		t.Errorf("p99 of 200 samples has two beyond it: err = %v, want errThinTail", err)
	}
	if _, err := percentile(xs[:199], 0.95); !errors.Is(err, errThinTail) {
		t.Errorf("p95 of 199 samples has nine beyond it: err = %v, want errThinTail", err)
	}
	if got, err := percentile(xs[:50], 0.80); err != nil || got != 190 {
		t.Errorf("p80 of 151..200 = %v, %v; want 190", got, err)
	}
}

func TestWindowRates(t *testing.T) {
	const s = int64(time.Second)
	acks := []ack{
		{doneNS: 5*s - 1, lines: 100},         // before the window
		{doneNS: 5 * s, lines: 256},           // window 0
		{doneNS: 5*s + s/2, lines: 256},       // window 0
		{doneNS: 6*s + 1, lines: 256},         // window 1
		{doneNS: 7*s + s - 1, lines: 10},      // window 2
		{doneNS: 8 * s, lines: 1000},          // past the end
		{doneNS: 7*s + s/3, lines: 5},         // window 2, out of order
		{doneNS: 6*s + 2*s/3, lines: 256 * 2}, // window 1
	}
	got := windowRates(acks, 5*s, 3)
	want := []float64{512, 768, 15}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("window %d = %v, want %v (all: %v)", i, got[i], want[i], got)
		}
	}
	if m := median(got); m != 512 {
		t.Errorf("windowed median = %v, want 512", m)
	}
}

func TestSelfTimes(t *testing.T) {
	// root(100) -> serve(70) -> {read(20), many(40) -> {hit(10), miss(25) -> tz(15) -> parse(5)}}
	spans := []span{
		{ID: 1, Name: "root", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "serve", StartNS: 200, EndNS: 270},
		{ID: 3, Parent: 2, Name: "read", StartNS: 300, EndNS: 320},
		{ID: 4, Parent: 2, Name: "many", StartNS: 400, EndNS: 440},
		{ID: 5, Parent: 4, Name: "hit", StartNS: 500, EndNS: 510},
		{ID: 6, Parent: 4, Name: "miss", StartNS: 600, EndNS: 625},
		{ID: 7, Parent: 6, Name: "tz", StartNS: 700, EndNS: 715},
		{ID: 8, Parent: 7, Name: "parse", StartNS: 800, EndNS: 805},
	}
	want := map[int]int64{1: 30, 2: 10, 3: 20, 4: 5, 5: 10, 6: 10, 7: 10, 8: 5}
	got := selfTimes(spans)
	var sum int64
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
		sum += got[id]
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the root's 100", sum)
	}
}

func TestCompareVerdicts(t *testing.T) {
	for _, tc := range []struct {
		name  string
		a, b  []float64
		bound float64
		want  string
	}{
		{"same", []float64{100, 101, 99}, []float64{100, 102, 101}, 0.05, "agree"},
		{"worse", []float64{100, 101, 99}, []float64{110, 111, 109}, 0.05, "differ"},
		{"better", []float64{100, 101, 99}, []float64{90, 91, 89}, 0.05, "differ"},
		{"noisy a", []float64{100, 120, 90}, []float64{100, 101, 99}, 0.05, "unresolved"},
		{"noisy b", []float64{100, 101, 99}, []float64{140, 101, 80}, 0.05, "unresolved"},
	} {
		if _, got := verdict(tc.a, tc.b, tc.bound); got != tc.want {
			t.Errorf("%s: verdict = %q, want %q", tc.name, got, tc.want)
		}
	}

	dir := t.TempDir()
	write := func(name string, qps ...float64) string {
		var f runFile
		for _, v := range qps {
			f.Runs = append(f.Runs, result{Workload: "ingest-repeat", Correct: true, Metrics: []metric{{Name: "observe_qps", Unit: "lines/s", Value: v, N: 10}}})
		}
		raw, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow := write("a.json", 400e3, 404e3, 398e3), write("same.json", 401e3, 399e3, 405e3), write("slow.json", 200e3, 201e3, 199e3)
	var out bytes.Buffer
	if err := compareFiles(&out, a, same); err != nil {
		t.Errorf("equal sets: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "agree") {
		t.Errorf("equal sets print no agree verdict:\n%s", out.String())
	}
	out.Reset()
	if err := compareFiles(&out, a, slow); !errors.Is(err, errDiffer) {
		t.Errorf("a set half as fast: err = %v, want errDiffer\n%s", err, out.String())
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, which the benchmark driver
// reads, in step with the tables the program itself uses.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better, Why string
		Bound                   float64
	}
	var spec struct {
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []entry
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var gated []workload
	for _, w := range workloads {
		if !w.ungated {
			gated = append(gated, w)
		}
	}
	if len(spec.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program gates %d", len(spec.Workloads), len(gated))
	}
	for i, w := range gated {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %q (%q) in BENCHMARK.json, %q (%q) in the program", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, the program has %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		better := "lower"
		if m.higher {
			better = "higher"
		}
		got := spec.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != better || got.Bound != m.bound {
			t.Errorf("end-to-end metric %d is %+v in BENCHMARK.json, {%s %s %s %v} in the program", i, got, m.name, m.unit, better, m.bound)
		}
	}
	// A traced run that measured nothing still names every per-layer metric.
	r := &run{startupS: []float64{1}, shutdownS: []float64{1}}
	newTracer().layerMetrics(r)
	if len(r.problems) != 0 {
		t.Fatalf("per-layer metrics of an empty run: %q", r.problems)
	}
	if len(spec.PerLayer) != len(r.metrics) {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, a traced run reports %d", len(spec.PerLayer), len(r.metrics))
	}
	for i, m := range r.metrics {
		if spec.PerLayer[i].Name != m.Name || spec.PerLayer[i].Unit != m.Unit {
			t.Errorf("per-layer metric %d is %s (%s) in BENCHMARK.json, %s (%s) in the program", i, spec.PerLayer[i].Name, spec.PerLayer[i].Unit, m.Name, m.Unit)
		}
	}
}

// TestSequentialPhasesInProcess drives the sequential part of a run — prime,
// maintain, forecast, score, and the catalog check against the generator's
// own tallies — against the server handler in-process, so the gate's logic
// is covered without building the daemon.
func TestSequentialPhasesInProcess(t *testing.T) {
	tw := newTwin()
	srv := httptest.NewServer(tw.h)
	defer srv.Close()
	cat := testCatalog(t, 48)
	r := &run{
		w: workload{name: "test", templates: 48}, seed: 5,
		cat: cat, hist: newHistory(cat, 5), perShape: make([]int64, 48),
		d: &daemon{ctl: newConn(strings.TrimPrefix(srv.URL, "http://"))},
	}
	defer r.d.ctl.closeIdle()
	end := historyStart.Add(primeDays * 24 * time.Hour)
	if err := r.sendHistory(historyStart, end.Add(time.Minute), time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := r.maintain(); err != nil {
		t.Fatal(err)
	}
	fc, ms, err := r.forecast()
	if err != nil || ms <= 0 {
		t.Fatalf("forecast: %v (%.3f ms)", err, ms)
	}
	r.pending, r.pendingHour = fc, hourIndex(end)
	if err := r.streamHour(); err != nil {
		t.Fatal(err)
	}
	if want := end.Add(time.Hour + time.Minute); !r.simNow.Equal(want) {
		t.Errorf("a streamed hour left the simulated clock at %v, want %v", r.simNow, want)
	}
	if r.sqErrN != len(fc) || math.IsNaN(r.sqErr) {
		t.Errorf("scored %d clusters (error sum %v), forecast had %d", r.sqErrN, r.sqErr, len(fc))
	}
	if _, err := r.checkStats("test"); err != nil {
		t.Fatal(err)
	}
	if err := r.checkCatalog(); err != nil {
		t.Fatal(err)
	}
	if len(r.problems) != 0 || r.failed != 0 || r.ingested != r.queries {
		t.Fatalf("clean run reported problems %v, %d failures, %d of %d arrivals acknowledged", r.problems, r.failed, r.ingested, r.queries)
	}

	// An arrival the generator did not tally must trip the gate.
	if _, err := r.d.ctl.observe(cat.shapes[0].appendSQL([]byte(end.Format(tsLayout)+"\t"), 1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.checkStats("test"); err != nil {
		t.Fatal(err)
	}
	if err := r.checkCatalog(); err != nil {
		t.Fatal(err)
	}
	if len(r.problems) != 2 {
		t.Errorf("one untallied arrival: problems = %q, want a TotalQueries and a template-count mismatch", r.problems)
	}
}
