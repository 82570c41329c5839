package preprocess

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
)

// shardTrace builds a deterministic mixed workload: distinct templates with
// interleaved arrivals, folds, batches, and one unparseable statement.
func shardTrace() []Observation {
	var obs []Observation
	for i := 0; i < 200; i++ {
		at := base.Add(time.Duration(i) * time.Minute)
		obs = append(obs,
			Observation{SQL: fmt.Sprintf("SELECT a FROM t%d WHERE x = %d", i%17, i), At: at},
			Observation{SQL: fmt.Sprintf("INSERT INTO logs%d (v) VALUES (%d), (%d)", i%5, i, i+1), At: at},
		)
		if i%7 == 0 {
			obs = append(obs, Observation{SQL: "UPDATE accounts SET balance = 1 WHERE id = 2", At: at, Count: 25})
		}
	}
	return obs
}

// TestProcessManyMatchesSequential pins the batch API's contract: for a
// fixed input order, ProcessMany produces the exact catalog — bytes of the
// canonical snapshot included — that the equivalent sequence of
// ProcessBatch calls produces.
func TestProcessManyMatchesSequential(t *testing.T) {
	trace := shardTrace()

	seq := New(Options{Seed: 3, Shards: 4})
	for _, o := range trace {
		count := o.Count
		if count == 0 {
			count = 1
		}
		if _, err := seq.ProcessBatch(o.SQL, o.At, count); err != nil {
			t.Fatal(err)
		}
	}

	batched := New(Options{Seed: 3, Shards: 4})
	ingested, rejected := batched.ProcessMany(trace)
	if rejected != 0 {
		t.Fatalf("rejected = %d, want 0", rejected)
	}
	if want := seq.Stats().TotalQueries; ingested != want {
		t.Fatalf("ingested = %d, want %d (query-weighted)", ingested, want)
	}

	var a, b bytes.Buffer
	if err := seq.Snapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := batched.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("ProcessMany catalog diverged from sequential ProcessBatch (snapshots differ: %d vs %d bytes)", a.Len(), b.Len())
	}
}

// TestSnapshotBytesIdenticalAcrossShardCounts pins the canonical snapshot
// form: the same input order must yield byte-identical snapshots whether the
// catalog ran with 1, 2, or 8 stripes, and snapshotting twice must yield the
// same bytes (no map-iteration-order leakage).
func TestSnapshotBytesIdenticalAcrossShardCounts(t *testing.T) {
	trace := shardTrace()
	var ref []byte
	for _, shards := range []int{1, 2, 8} {
		p := New(Options{Seed: 3, Shards: shards})
		if _, rejected := p.ProcessMany(trace); rejected != 0 {
			t.Fatalf("shards=%d: rejected %d observations", shards, rejected)
		}
		var buf, again bytes.Buffer
		if err := p.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		if err := p.Snapshot(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), again.Bytes()) {
			t.Fatalf("shards=%d: two snapshots of the same catalog differ", shards)
		}
		if ref == nil {
			ref = buf.Bytes()
			continue
		}
		if !bytes.Equal(ref, buf.Bytes()) {
			t.Fatalf("shards=%d snapshot differs from shards=1 (%d vs %d bytes)", shards, buf.Len(), len(ref))
		}
	}
}

// TestShardCountRounding pins the stripe-count policy: power-of-two
// rounding, with 1 reproducing the historical single-stripe layout.
func TestShardCountRounding(t *testing.T) {
	for _, tc := range []struct{ req, want int }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {9, 16},
	} {
		if got := New(Options{Shards: tc.req}).NumShards(); got != tc.want {
			t.Errorf("Shards=%d: NumShards = %d, want %d", tc.req, got, tc.want)
		}
	}
	if got := New(Options{}).NumShards(); got&(got-1) != 0 || got < 1 {
		t.Errorf("default NumShards = %d, want a power of two", got)
	}
}

// TestSequentialIDsAtOneShard pins backward compatibility: a single-stripe
// catalog allocates the historical sequential IDs 1, 2, 3, ...
func TestSequentialIDsAtOneShard(t *testing.T) {
	p := New(Options{Shards: 1})
	for i := 1; i <= 5; i++ {
		tm, err := p.Process(fmt.Sprintf("SELECT a FROM solo%d WHERE x = 1", i), base)
		if err != nil {
			t.Fatal(err)
		}
		if tm.ID != int64(i) {
			t.Fatalf("template %d got ID %d", i, tm.ID)
		}
	}
}

// TestTemplateCopiesAreDefensive pins the reader contract: Templates,
// Template, and CloneByID return copies whose mutation cannot corrupt the
// catalog.
func TestTemplateCopiesAreDefensive(t *testing.T) {
	p := New(Options{Seed: 1, Shards: 2})
	orig, err := p.ProcessBatch("SELECT a FROM t WHERE x = 1", base, 3)
	if err != nil {
		t.Fatal(err)
	}
	id := orig.ID

	snap := p.Templates()[0]
	snap.Count = 999
	snap.History.Record(base.Add(time.Minute), 100)
	snap.Params.Observe([]string{"'poison'"})

	byID, ok := p.Template(id)
	if !ok {
		t.Fatal("template missing")
	}
	if byID.Count != 3 {
		t.Fatalf("catalog Count = %d after mutating a snapshot, want 3", byID.Count)
	}
	if got := historyTotal(byID.History); got != 3 {
		t.Fatalf("catalog history total = %v after mutating a snapshot, want 3", got)
	}
	if byID.Params.Seen() != 1 {
		t.Fatalf("catalog reservoir saw %d vectors, want 1", byID.Params.Seen())
	}

	cl := p.CloneByID([]int64{id, 424242})
	if len(cl) != 1 {
		t.Fatalf("CloneByID returned %d templates, want 1", len(cl))
	}
	cl[id].History.Record(base, 50)
	if byID2, _ := p.Template(id); historyTotal(byID2.History) != 3 {
		t.Fatal("CloneByID leaked a live history")
	}
}

// TestWindowContract pins the forecast path's one read of the catalog:
// Preprocessor.Window adds to dst exactly what Template(id).History.Window
// adds — on a live catalog and on a restored one, whose canonical IDs need
// not sit on the stripe their low bits name — leaves dst alone for an ID the
// catalog does not hold, and keeps no reference to dst or hands out none to
// the history.
func TestWindowContract(t *testing.T) {
	live := New(Options{Seed: 3, Shards: 4})
	if _, rejected := live.ProcessMany(shardTrace()); rejected != 0 {
		t.Fatalf("rejected %d observations", rejected)
	}
	var snap bytes.Buffer
	if err := live.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSnapshotCache(&snap, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	offHome := 0
	for _, tm := range restored.Templates() {
		home := &restored.shards[uint64(tm.ID)&restored.shardMask]
		home.mu.Lock()
		if _, ok := home.byID[tm.ID]; !ok {
			offHome++
		}
		home.mu.Unlock()
	}
	if offHome == 0 {
		t.Fatal("no restored ID is off its home stripe; the scan fallback is not exercised")
	}

	// A window that starts before the histories, ends after them, and whose
	// step divides neither an hour nor the trace evenly.
	from, step, bins := base.Add(-45*time.Minute), 7*time.Minute, 40
	for _, tc := range []struct {
		name string
		p    *Preprocessor
	}{{"live", live}, {"restored", restored}} {
		for _, tm := range tc.p.Templates() {
			// Non-zero contents show that Window adds rather than stores.
			want := make([]float64, bins)
			for i := range want {
				want[i] = 1.5
			}
			untouched, got := slices.Clone(want), slices.Clone(want)
			tm.History.Window(want, from, step)
			if !tc.p.Window(tm.ID, got, from, step) {
				t.Fatalf("%s: Window(%d) = false for a catalogued template", tc.name, tm.ID)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: Window(%d) = %v, History.Window of its copy = %v", tc.name, tm.ID, got, want)
			}
			if slices.Equal(got, untouched) {
				t.Fatalf("%s: template %d has no arrivals in the window; the comparison is empty", tc.name, tm.ID)
			}
			// Nothing retained either way: later arrivals do not reach
			// dst, and scribbling on dst does not reach the catalog.
			if _, err := tc.p.ProcessBatch(tm.SQL, base.Add(3*time.Minute), 9); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: dst changed after a later arrival for template %d", tc.name, tm.ID)
			}
			clear(got)
			after, _ := tc.p.Template(tm.ID)
			if total := historyTotal(after.History); total != historyTotal(tm.History)+9 {
				t.Fatalf("%s: template %d holds %v arrivals after its window was read and cleared, want %v",
					tc.name, tm.ID, total, historyTotal(tm.History)+9)
			}
		}
		dst := []float64{1, 2, 3}
		if tc.p.Window(424242, dst, from, step) {
			t.Fatalf("%s: Window reported an unknown ID as present", tc.name)
		}
		if !slices.Equal(dst, []float64{1, 2, 3}) {
			t.Fatalf("%s: Window wrote %v into dst for an unknown ID", tc.name, dst)
		}
	}
}

// TestProcessManyRejects pins the rejection accounting: parse failures and
// negative counts are rejected (failures also count as parse errors) while
// the rest of the batch still folds; both tallies are query-weighted.
func TestProcessManyRejects(t *testing.T) {
	p := New(Options{Shards: 2})
	ingested, rejected := p.ProcessMany([]Observation{
		{SQL: "SELECT a FROM t WHERE x = 1", At: base},
		{SQL: "THIS IS NOT SQL", At: base, Count: 3},
		{SQL: "SELECT a FROM t WHERE x = 2", At: base, Count: -4},
		{SQL: "SELECT a FROM t WHERE x = 3", At: base, Count: 5},
	})
	if ingested != 6 || rejected != 4 { // 1+5 in, 3+1 out
		t.Fatalf("ingested=%d rejected=%d, want 6/4", ingested, rejected)
	}
	st := p.Stats()
	if st.ParseErrors != 1 {
		t.Fatalf("ParseErrors = %d, want 1", st.ParseErrors)
	}
	if st.TotalQueries != 6 {
		t.Fatalf("TotalQueries = %d, want 6", st.TotalQueries)
	}
}

// TestConcurrentProcessMany hammers the striped catalog from several
// goroutines (run under -race in CI) and checks the merged counters add up.
func TestConcurrentProcessMany(t *testing.T) {
	p := New(Options{Seed: 1})
	const goroutines, perG = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var obs []Observation
			for i := 0; i < perG; i++ {
				obs = append(obs, Observation{
					SQL: fmt.Sprintf("SELECT a FROM conc%d WHERE x = %d", i%10, g),
					At:  base.Add(time.Duration(i) * time.Second),
				})
			}
			if ingested, rejected := p.ProcessMany(obs); ingested != perG || rejected != 0 {
				t.Errorf("goroutine %d: ingested=%d rejected=%d", g, ingested, rejected)
			}
		}(g)
	}
	wg.Wait()
	if got := p.Stats().TotalQueries; got != goroutines*perG {
		t.Fatalf("TotalQueries = %d, want %d", got, goroutines*perG)
	}
	if got := p.Len(); got != 10 {
		t.Fatalf("Len = %d, want 10", got)
	}
}
