package preprocess

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"qb5000/internal/timeseries"
)

func TestSnapshotRoundTrip(t *testing.T) {
	p := New(Options{Seed: 3, EvictAfter: 10 * 24 * time.Hour})
	queries := []string{
		"SELECT a FROM t WHERE x = 1",
		"SELECT a FROM t WHERE x = 2", // folds with the first
		"INSERT INTO t (a) VALUES (5), (6)",
		"UPDATE t SET a = 7 WHERE id = 3",
	}
	for i, q := range queries {
		if _, err := p.Process(q, base.Add(time.Duration(i)*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	p.ProcessBatch("SELECT a FROM t WHERE x = 9", base.Add(time.Hour), 50)

	var buf bytes.Buffer
	if err := p.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSnapshotCache(&buf, 0, 0)
	if err != nil {
		t.Fatal(err)
	}

	if restored.Len() != p.Len() {
		t.Fatalf("template count %d, want %d", restored.Len(), p.Len())
	}
	a, b := p.Stats(), restored.Stats()
	if a.TotalQueries != b.TotalQueries || len(a.ByType) != len(b.ByType) {
		t.Fatalf("stats mismatch: %+v vs %+v", a, b)
	}
	// Snapshot IDs are canonical (1..N in semantic-key order), so restored
	// templates are matched by semantic key rather than by original ID.
	bySQL := make(map[string]*Template)
	for _, rt := range restored.Templates() {
		bySQL[rt.Key] = rt
	}
	for _, orig := range p.Templates() {
		got, ok := bySQL[orig.Key]
		if !ok {
			t.Fatalf("template %d (%s) missing after restore", orig.ID, orig.Key)
		}
		if got.SQL != orig.SQL || got.Count != orig.Count || got.Tuples != orig.Tuples {
			t.Fatalf("template %d mismatch:\n%+v\n%+v", orig.ID, got, orig)
		}
		if !got.FirstSeen.Equal(orig.FirstSeen) || !got.LastSeen.Equal(orig.LastSeen) {
			t.Fatalf("template %d timestamps drifted", orig.ID)
		}
		// History contents survive.
		if historyTotal(got.History) != historyTotal(orig.History) {
			t.Fatalf("template %d history lost", orig.ID)
		}
		// Reservoir samples survive.
		if got.Params.Len() != orig.Params.Len() || got.Params.Seen() != orig.Params.Seen() {
			t.Fatalf("template %d reservoir lost", orig.ID)
		}
		// Features were re-derived.
		if got.Features.SemanticKey() != orig.Features.SemanticKey() {
			t.Fatalf("template %d features drifted", orig.ID)
		}
	}

	// The restored catalog keeps working: the same query folds into its
	// existing template and new templates get fresh IDs.
	restoredIDs := make(map[int64]bool)
	for _, rt := range restored.Templates() {
		restoredIDs[rt.ID] = true
	}
	tm, err := restored.Process("SELECT a FROM t WHERE x = 77", base.Add(2*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if want := bySQL["SELECT|T:t|P:x = ?|R:a"]; tm.ID != want.ID {
		t.Fatalf("restored catalog did not fold: got template %d, want %d", tm.ID, want.ID)
	}
	fresh, err := restored.Process("SELECT brand FROM new_table WHERE z = 1", base.Add(2*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if restoredIDs[fresh.ID] {
		t.Fatalf("restored catalog reused ID %d", fresh.ID)
	}
}

func TestRestoreSnapshotErrors(t *testing.T) {
	if _, err := RestoreSnapshotCache(strings.NewReader("not a gob stream"), 0, 0); err == nil {
		t.Fatal("expected decode error")
	}
	if _, err := RestoreSnapshotCache(bytes.NewReader(nil), 0, 0); err == nil {
		t.Fatal("expected EOF error")
	}
}

func TestSnapshotAfterCompaction(t *testing.T) {
	p := New(Options{Seed: 1})
	p.Process("SELECT a FROM t WHERE x = 1", base)
	p.Process("SELECT a FROM t WHERE x = 2", base.Add(50*24*time.Hour))
	p.Maintain(base.Add(50 * 24 * time.Hour)) // compacts old bins to coarse
	var buf bytes.Buffer
	if err := p.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSnapshotCache(&buf, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	tm, _ := restored.Template(1)
	// The old arrival reads as its compacted hour's per-minute average, so
	// it came back in the coarse tier rather than as a minute bin.
	if got := tm.History.At(base); got != 1.0/60 {
		t.Fatalf("compacted arrival reads %v per minute, want 1/60", got)
	}
	if got := historyTotal(tm.History); got != 2 {
		t.Fatalf("full history = %v, want 2", got)
	}
}

// historyTotal sums every arrival of a history up to a year past its start.
func historyTotal(h *timeseries.History) float64 {
	var total [1]float64
	h.Window(total[:], h.Start(), 365*24*time.Hour)
	return total[0]
}
