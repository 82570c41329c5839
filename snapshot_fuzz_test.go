package qb5000

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// snapshotConfig is the fixed shape used by the snapshot robustness tests;
// Load needs the same Config the snapshot was written under.
func snapshotConfig() Config {
	return Config{Model: "LR", Horizons: []time.Duration{time.Hour}, Seed: 5}
}

// snapshotBytes trains a small forecaster and returns its serialized
// envelope, for use as fuzz seed and corruption substrate.
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

// TestLoadRejectsCorruptSnapshots pins the envelope's failure modes: every
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

// FuzzLoad feeds arbitrary byte strings to Load: the envelope must reject
// anything torn or mutated with an error, and a successful load must yield
// a usable forecaster. Panics are the only failure.
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
