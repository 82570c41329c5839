package preprocess

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
	"io"
	"math"
	"slices"
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

// frameBody wraps body in a snapshot frame with a correct length and CRC, the
// way a crafted or version-skewed file would arrive: past the checksum.
func frameBody(body []byte) []byte {
	out := binary.BigEndian.AppendUint64([]byte(snapshotMagic), uint64(len(body)))
	out = append(out, body...)
	return binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
}

// reframe decodes a good snapshot into its header and bins, lets mutate edit
// both, and frames the result again.
func reframe(t *testing.T, good []byte, mutate func(hdr *snapshotHeader, bins []byte) []byte) []byte {
	t.Helper()
	body := bytes.NewReader(good[16 : len(good)-4])
	var hdr snapshotHeader
	if err := gob.NewDecoder(body).Decode(&hdr); err != nil {
		t.Fatal(err)
	}
	bins, err := io.ReadAll(body)
	if err != nil {
		t.Fatal(err)
	}
	bins = mutate(&hdr, bins)
	var out bytes.Buffer
	if err := gob.NewEncoder(&out).Encode(hdr); err != nil {
		t.Fatal(err)
	}
	return frameBody(append(out.Bytes(), bins...))
}

// TestRestoreSnapshotErrors is the corruption table for what a checksum
// cannot catch: every row is a frame with a correct magic, length and CRC
// whose body a crafted or version-skewed writer got wrong. Each must be
// refused with an error that says what is wrong, never restored in part.
func TestRestoreSnapshotErrors(t *testing.T) {
	p := New(Options{Seed: 3})
	for _, q := range []string{"SELECT a FROM t WHERE x = 1", "UPDATE t SET a = 7 WHERE id = 3", "DELETE FROM u WHERE k = 4"} {
		if _, err := p.ProcessBatch(q, base, 5); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := p.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	// Each history here is two 16-byte tier headers around one count token
	// (5 arrivals: the byte 2·5+1).
	const histLen, fineCount, fineToken = 33, 8, 16
	reframe(t, good, func(_ *snapshotHeader, bins []byte) []byte {
		if len(bins) != 3*histLen || bins[fineToken] != 11 {
			t.Fatalf("fixture moved: %d bytes of bins, token %#x", len(bins), bins[fineToken])
		}
		return bins
	})
	// The encoder writes no NaN, infinity or negative bin, so setBin swaps
	// template 2's history for one holding a fraction, which goes out as an
	// escape, and patches the escape's 8 bytes.
	setBin := func(v float64) func(*snapshotHeader, []byte) []byte {
		return func(_ *snapshotHeader, bins []byte) []byte {
			h := timeseries.NewHistory(base)
			h.Record(base, 0.5)
			esc := h.AppendBinary(nil)
			binary.LittleEndian.PutUint64(esc[fineToken+1:], math.Float64bits(v))
			return slices.Concat(bins[:histLen], esc, bins[2*histLen:])
		}
	}
	// setToken replaces one history's count token.
	setToken := func(hist int, token ...byte) func(*snapshotHeader, []byte) []byte {
		return func(_ *snapshotHeader, bins []byte) []byte {
			at := hist*histLen + fineToken
			return slices.Concat(bins[:at], token, bins[at+1:])
		}
	}
	cases := []struct {
		name    string
		in      []byte
		wantSub string
	}{
		{"not a frame", []byte("not a snapshot, just sixteen or more bytes"), "magic"},
		{"empty", nil, "truncated"},
		{"body is not gob", frameBody([]byte("not a gob stream")), "snapshot header"},
		{"empty body", frameBody(nil), "snapshot header"},
		{"bin count past the bytes present", reframe(t, good, func(_ *snapshotHeader, bins []byte) []byte {
			binary.LittleEndian.PutUint64(bins[fineCount:], 1<<50)
			return bins
		}), "template 1: timeseries: tier declares 1125899906842624 bins"},
		{"last history missing", reframe(t, good, func(_ *snapshotHeader, bins []byte) []byte {
			return bins[:2*histLen]
		}), "template 3: timeseries: history truncated"},
		{"bytes after the last history", reframe(t, good, func(_ *snapshotHeader, bins []byte) []byte {
			return append(bins, 0)
		}), "1 bytes follow the last template's history"},
		{"NaN bin", reframe(t, good, setBin(math.NaN())), "template 2: timeseries: bin 0 is NaN"},
		{"infinite bin", reframe(t, good, setBin(math.Inf(1))), "template 2: timeseries: bin 0 is +Inf"},
		{"negative bin", reframe(t, good, setBin(-5)), "template 2: timeseries: bin 0 is -5"},
		{"run past the tier's end", reframe(t, good, setToken(0, 0x02)), "template 1: timeseries: bin 0: a run of 2 zeros overruns the tier's 1 bins"},
		{"non-canonical count token", reframe(t, good, setToken(2, 0x8b, 0x00)), "template 3: timeseries: bin 0: non-canonical count token"},
		{"tier start off its boundary", reframe(t, good, func(_ *snapshotHeader, bins []byte) []byte {
			binary.LittleEndian.PutUint64(bins, uint64(base.Unix()+7))
			return bins
		}), "not on a 1m0s boundary"},
		{"keys out of order", reframe(t, good, func(hdr *snapshotHeader, bins []byte) []byte {
			hdr.Templates[0], hdr.Templates[1] = hdr.Templates[1], hdr.Templates[0]
			return bins
		}), "does not sort after"},
		{"duplicate key", reframe(t, good, func(hdr *snapshotHeader, bins []byte) []byte {
			hdr.Templates[2] = hdr.Templates[1]
			return bins
		}), "template 3: key"},
		{"reservoir seen below samples held", reframe(t, good, func(hdr *snapshotHeader, bins []byte) []byte {
			hdr.Templates[0].ReservoirSeen = -4
			return bins
		}), "reservoir holds 1 samples of -4 seen"},
		{"SQL that no longer parses", reframe(t, good, func(hdr *snapshotHeader, bins []byte) []byte {
			hdr.Templates[1].SQL = "SELEKT a FROM t"
			return bins
		}), `template 2: canonical SQL "SELEKT a FROM t" no longer parses`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RestoreSnapshotCache(bytes.NewReader(tc.in), 0, 0)
			if err == nil {
				t.Fatal("restored a corrupt snapshot")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
	// An untouched reframe still restores, and to the same bytes: the rows
	// above are refused for their edits, not for having been reframed.
	same := reframe(t, good, func(_ *snapshotHeader, bins []byte) []byte { return bins })
	if !bytes.Equal(same, good) {
		t.Fatal("reframing an unedited snapshot changed its bytes")
	}
	if _, err := RestoreSnapshotCache(bytes.NewReader(same), 0, 0); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
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

// FuzzTemplateReparses pins the invariant a restore relies on: whatever SQL
// the catalog accepts, the canonical template it stores parses again.
// RestoreSnapshotCache refuses a snapshot holding a template that does not,
// so a single accepted query that broke this would make every later
// snapshot unloadable (a quoted identifier such as `0` or "select", rendered
// bare, once did). The re-parse may normalize once more — "İ" lower-cases to
// a bare i — but what it yields must then be a fixed point.
func FuzzTemplateReparses(f *testing.F) {
	for _, s := range []string{
		"SELECT a FROM t WHERE x = 1",
		"DELETE FROM `0`",
		`SELECT "select", "My Col" AS "a b" FROM "order" AS "1" WHERE "1"."x y" = 3`,
		`INSERT INTO "t t" ("from", b) VALUES (1, 'x'), (2, 'y')`,
		"UPDATE `a\"b` SET `where` = `where` + 1 WHERE \"c`d\"(`2`) > - -1",
		`SELECT "*", "", "İ" FROM t GROUP BY "" HAVING COUNT(*) > 1 ORDER BY "9" DESC LIMIT 5`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		stored, err := Templatize(raw)
		if err != nil {
			return
		}
		restored, err := Templatize(stored.SQL)
		if err != nil {
			t.Fatalf("template of %q does not re-parse: %q: %v", raw, stored.SQL, err)
		}
		again, err := Templatize(restored.SQL)
		if err != nil || again.SQL != restored.SQL || again.Features.SemanticKey() != restored.Features.SemanticKey() {
			t.Fatalf("template of %q never settles: %q, then %q, then %q (%v)", raw, stored.SQL, restored.SQL, again.SQL, err)
		}
	})
}
