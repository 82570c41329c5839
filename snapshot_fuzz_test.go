package qb5000

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"qb5000/internal/preprocess"
)

// snapshotConfig is the fixed shape used by the snapshot robustness tests;
// Load needs the same Config the snapshot was written under.
func snapshotConfig() Config {
	return Config{Model: "LR", Horizons: []time.Duration{time.Hour}, Seed: 5}
}

// snapshotBytes trains a small forecaster and returns its serialized
// snapshot frame, for use as fuzz seed and corruption substrate.
func snapshotBytes(t interface {
	Helper()
	Fatal(...any)
}) []byte {
	t.Helper()
	f := New(snapshotConfig())
	base := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 200; i++ {
		at := base.Add(time.Duration(i) * time.Minute)
		if err := f.ObserveBatch("SELECT a FROM t WHERE x = 1", at, int64(1+i%4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Maintain(context.Background(), base.Add(4*time.Hour)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSaveFileLoadFileRoundTrip exercises the file-level persistence pair:
// SaveFile writes through the fsx atomic protocol, LoadFile reopens and
// restores, and the restored forecaster matches on observable state.
func TestSaveFileLoadFileRoundTrip(t *testing.T) {
	f := New(snapshotConfig())
	base := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 100; i++ {
		if err := f.ObserveBatch("SELECT b FROM u WHERE y = 2", base.Add(time.Duration(i)*time.Minute), 3); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Maintain(context.Background(), base.Add(2*time.Hour)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rt.snap")
	if err := f.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	g, err := LoadFile(snapshotConfig(), path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := g.Stats().TotalQueries, f.Stats().TotalQueries; got != want {
		t.Fatalf("reloaded TotalQueries = %d, want %d", got, want)
	}
	if got, want := len(g.Templates()), len(f.Templates()); got != want {
		t.Fatalf("reloaded %d templates, want %d", got, want)
	}
	// Overwriting an existing snapshot must replace, not append.
	if err := f.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(snapshotConfig(), path); err != nil {
		t.Fatal(err)
	}
}

// TestSaveLoadFileClosesHandles: a save (fsx.WriteAtomic's temp file and
// its directory sync) and a load each close every file they open, so a
// daemon that snapshots forever holds a constant number of descriptors. The
// collector is held off for the rounds because os.File's finalizer would
// otherwise close some leaked handles behind the test's back.
func TestSaveLoadFileClosesHandles(t *testing.T) {
	openFDs := func() int {
		t.Helper()
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no per-process descriptor table to count: %v", err)
		}
		return len(fds)
	}
	f := New(snapshotConfig())
	if err := f.ObserveBatch("SELECT b FROM u WHERE y = 2", time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC), 3); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fd.snap")
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	before := openFDs()
	for i := 0; i < 100; i++ {
		if err := f.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadFile(snapshotConfig(), path); err != nil {
			t.Fatal(err)
		}
	}
	if after := openFDs(); after != before {
		t.Fatalf("100 SaveFile+LoadFile rounds left %d open descriptors, want %d", after, before)
	}
}

// TestLoadRejectsCorruptSnapshots pins the frame's failure modes: every
// torn-write and bit-rot shape must be rejected with a descriptive error,
// never a panic or a silently half-restored forecaster.
func TestLoadRejectsCorruptSnapshots(t *testing.T) {
	data := snapshotBytes(t)
	if len(data) < 32 {
		t.Fatalf("snapshot implausibly small: %d bytes", len(data))
	}

	flipped := bytes.Clone(data)
	flipped[len(flipped)/2] ^= 0x40

	badMagic := bytes.Clone(data)
	badMagic[0] ^= 0xFF

	trailing := append(bytes.Clone(data), "garbage"...)

	cases := []struct {
		name    string
		in      []byte
		wantSub string
	}{
		{"empty", nil, "truncated"},
		{"short header", data[:7], "truncated"},
		{"bad magic", badMagic, "magic"},
		{"header only", data[:16], "truncated"},
		{"half body", data[:len(data)/2], "truncated"},
		{"missing checksum", data[:len(data)-2], "truncated"},
		{"bit flip", flipped, "CRC32"},
		{"trailing garbage", trailing, "trailing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(snapshotConfig(), bytes.NewReader(tc.in))
			if err == nil {
				t.Fatalf("Load accepted a corrupt snapshot (%s)", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}

	// The pristine bytes still load — the corruption cases above are not
	// rejecting everything.
	if _, err := Load(snapshotConfig(), bytes.NewReader(data)); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
}

// FuzzLoad feeds arbitrary byte strings to Load: the frame must reject
// anything torn or mutated with an error, and a successful load must yield
// a usable forecaster. Panics are the only failure. Mutated bytes all but
// never pass the CRC, so this fuzzes the frame; FuzzSnapshotBody fuzzes what
// is inside it.
func FuzzLoad(f *testing.F) {
	data := snapshotBytes(f)
	f.Add(data)
	f.Add([]byte{})
	f.Add(data[:len(data)/2])
	f.Add(data[:16])
	f.Add(data[:len(data)-2])
	flipped := bytes.Clone(data)
	flipped[len(flipped)/3] ^= 0x01
	f.Add(flipped)
	f.Add(append(bytes.Clone(data), 0xAA))

	cfg := snapshotConfig()
	f.Fuzz(func(t *testing.T, b []byte) {
		fc, err := Load(cfg, bytes.NewReader(b))
		if err != nil {
			return
		}
		// A snapshot that passed the checksum must restore to a working
		// forecaster.
		fc.Stats()
		fc.Templates()
	})
}

// TestLoadRefusesOldSnapshots: each file was written by the last commit that
// spoke its format — testdata/v2.snap the QB5KSNP2 envelope (gob body, nested
// MarshalBinary histories), testdata/v3.snap the QB5KSNP3 frame with raw
// IEEE-754 bins. No reader for either is kept; Load must say so rather than
// misread them.
func TestLoadRefusesOldSnapshots(t *testing.T) {
	for _, v := range []string{"2", "3"} {
		t.Run("v"+v, func(t *testing.T) {
			_, err := LoadFile(snapshotConfig(), filepath.Join("testdata", "v"+v+".snap"))
			if err == nil {
				t.Fatalf("Load accepted a v%s snapshot", v)
			}
			for _, want := range []string{"bad magic", `"QB5KSNP` + v + `"`, "must be regenerated"} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not mention %s", err, want)
				}
			}
		})
	}
}

// goldenSnapshot is the fixed catalog behind testdata/v4.snap: one template
// whose history crossed a compaction, so both tiers are in the file, and one
// whose history holds a fractional bin, so an escape is too.
func goldenSnapshot(t *testing.T) []byte {
	t.Helper()
	f := New(Config{Model: "LR", Horizons: []time.Duration{time.Hour}, Seed: 5, Shards: 1})
	base := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	for d := 0; d < 40; d++ {
		if err := f.ObserveBatch("SELECT a FROM t WHERE x = 1", base.Add(time.Duration(d)*24*time.Hour+time.Duration(d)*time.Minute), int64(1+d)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.ObserveBatch("UPDATE t SET a = 7 WHERE id = 3", base.Add(39*24*time.Hour), 3); err != nil {
		t.Fatal(err)
	}
	pre := f.Controller().Preprocessor()
	pre.Maintain(base.Add(40 * 24 * time.Hour))
	pre.Each(func(tm *preprocess.Template) {
		if strings.HasPrefix(tm.SQL, "UPDATE") {
			tm.History.Record(base.Add(39*24*time.Hour+time.Minute), 0.25)
		}
	})
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotFormatGolden pins the bytes of the current format: a fixed
// catalog must save to exactly testdata/v4.snap, which must load and save
// back to itself. A change that moves these bytes changes the format: it
// bumps snapshotMagic, adds v4.snap to TestLoadRefusesOldSnapshots and pins
// its own golden, rather than rewriting this one.
func TestSnapshotFormatGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "v4.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenSnapshot(t); !bytes.Equal(got, want) {
		t.Fatalf("the golden catalog saves to %d bytes that differ from testdata/v4.snap (%d bytes): the snapshot format changed", len(got), len(want))
	}
	f, err := Load(snapshotConfig(), bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := f.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), want) {
		t.Fatal("testdata/v4.snap does not load and save back to itself")
	}
}

// TestRestoredTwinMatchesUnrestarted is the persistence contract end to end:
// Save → Load → Save is byte-identical, and from then on the restored
// forecaster is indistinguishable from the one that never restarted — fed
// the same arrivals, their template catalogs serialize to the same JSON
// (first/last-seen times keep their instant and their zone offset) and, after
// one Maintain each, so do their forecasts. The histories are compacted
// before the save, so both tiers cross the file.
func TestRestoredTwinMatchesUnrestarted(t *testing.T) {
	// One stripe and templates first seen in semantic-key order make the live
	// IDs equal the canonical 1..N a restore assigns. Only one query carries
	// a literal, and it arrives fewer times than the reservoir holds, so no
	// sample depends on the RNG position a snapshot does not keep.
	cfg := Config{Model: "LR", Horizons: []time.Duration{time.Hour}, Seed: 5, Shards: 1}
	queries := []string{"DELETE FROM v", "SELECT a FROM t", "SELECT b FROM u WHERE y = 3", "UPDATE w SET c = c"}
	start := time.Date(2024, 3, 1, 0, 0, 0, 0, time.FixedZone("", -7*3600))
	feed := func(f *Forecaster, fromHour, toHour int) {
		t.Helper()
		for h := fromHour; h < toHour; h++ {
			for i, q := range queries {
				if i == 2 && h%24 != 0 {
					continue
				}
				at := start.Add(time.Duration(h)*time.Hour + time.Duration(7*i)*time.Minute)
				if err := f.ObserveBatch(q, at, int64(5+i+(h+6*i)%24)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	asJSON := func(v any, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	const days = 40
	live := New(cfg)
	feed(live, 0, days*24)
	live.Controller().Preprocessor().Maintain(start.Add(days * 24 * time.Hour)) // compacts; derives nothing
	var first, second bytes.Buffer
	if err := live.Save(&first); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(cfg, bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("Save → Load → Save changed the bytes (%d vs %d)", first.Len(), second.Len())
	}

	now := start.Add((days*24 + 12) * time.Hour)
	for _, f := range []*Forecaster{live, restored} {
		feed(f, days*24, days*24+12)
		if got, want := asJSON(f.Templates(), nil), asJSON(live.Templates(), nil); got != want {
			t.Fatalf("template catalogs differ after the restart:\n%s\n%s", got, want)
		}
		if err := f.Maintain(context.Background(), now); err != nil {
			t.Fatal(err)
		}
	}
	if !strings.Contains(asJSON(live.Templates(), nil), "-07:00") {
		t.Fatal("template times lost their zone offset")
	}
	got, want := asJSON(restored.Forecast(time.Hour)), asJSON(live.Forecast(time.Hour))
	if got != want || !strings.Contains(want, "TotalRate") {
		t.Fatalf("forecasts differ after the restart, or are empty:\n%s\n%s", got, want)
	}
}

// frameSnapshot wraps body in a frame with a correct magic, length and CRC.
func frameSnapshot(body []byte) []byte {
	out := binary.BigEndian.AppendUint64([]byte("QB5KSNP4"), uint64(len(body)))
	out = append(out, body...)
	return binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
}

// FuzzSnapshotBody fuzzes what the checksum cannot vouch for. FuzzLoad's
// mutations die at the CRC, so here the fuzzer's bytes are framed correctly
// and handed to Load as the body a crafted or version-skewed writer might
// have produced. Load must not panic, must not allocate beyond a fixed
// multiple of the input — a history byte may stand for up to 64 bins of 8
// bytes each, so 512 × for the bins plus 64 × for the rest — (plus the 10 MB
// chunks encoding/gob allows itself per declared slice, whatever the input),
// and what it accepts must be a forecaster that maintains and forecasts.
func FuzzSnapshotBody(f *testing.F) {
	body := func(snap []byte) []byte { return snap[16 : len(snap)-4] }
	real := body(snapshotBytes(f))
	f.Add(real)

	compacted := New(snapshotConfig())
	base := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	for d := 0; d < 40; d++ {
		if err := compacted.ObserveBatch("SELECT a FROM t WHERE x = 1", base.Add(time.Duration(d)*24*time.Hour), 9); err != nil {
			f.Fatal(err)
		}
	}
	compacted.Controller().Preprocessor().Maintain(base.Add(40 * 24 * time.Hour))
	var buf bytes.Buffer
	if err := compacted.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(body(buf.Bytes()))

	buf.Reset()
	if err := New(snapshotConfig()).Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(body(buf.Bytes()))

	// Hand-broken counts: the one history's fine-tier bin count (8 bytes
	// into the bins, which are the tail of the body) set one too high, past
	// what the bytes present can hold, to the int64 sign bit, and to zero.
	// snapshotBytes observes 200 consecutive minutes of 1–4 arrivals: 200
	// one-byte count tokens and an empty coarse tier.
	const fineBins = 200
	countAt := len(real) - (32 + fineBins) + 8
	if n := binary.LittleEndian.Uint64(real[countAt:]); n != fineBins {
		f.Fatalf("fine bin count at body offset %d reads %d, want %d", countAt, n, fineBins)
	}
	for _, n := range []uint64{fineBins + 1, 1 << 20, 1 << 63, 0} {
		broken := bytes.Clone(real)
		binary.LittleEndian.PutUint64(broken[countAt:], n)
		f.Add(broken)
	}
	f.Add(real[:len(real)-8])
	f.Add([]byte{})

	cfg := snapshotConfig()
	f.Fuzz(func(t *testing.T, b []byte) {
		framed := frameSnapshot(b)
		var fc *Forecaster
		var err error
		got := totalAlloc(func() { fc, err = Load(cfg, bytes.NewReader(framed)) })
		if limit := float64(64<<20 + (512+64)*len(b)); got > limit {
			t.Fatalf("Load allocated %.0f bytes for a %d-byte body (limit %.0f)", got, len(b), limit)
		}
		if err != nil {
			return
		}
		fc.Stats()
		fc.Templates()
		// Maintain may decline (too little history to train on); it and
		// Forecast must only never panic.
		if err := fc.Maintain(context.Background(), fc.Controller().LastSeen().Add(time.Hour)); err != nil {
			return
		}
		fc.Forecast(time.Hour)
	})
}
