package tracefile

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"unicode"
)

func collect(into *[]Entry) func(Entry) error {
	return func(e Entry) error {
		*into = append(*into, e)
		return nil
	}
}

func sameEntry(a, b Entry) bool {
	return a.SQL == b.SQL && a.Count == b.Count && a.At.Equal(b.At)
}

// FuzzTraceRead pins the reader's contract ahead of any rewrite of it (the
// seed corpus is testdata/fuzz/FuzzTraceRead). For an arbitrary byte stream:
// Read does not panic; every delivered entry has Count >= 1; the stream
// delivers exactly what its lines deliver when read one at a time, in order,
// up to the first malformed line, whose number the error carries. And every
// line of the input, taken as a SQL string, survives Writer.Write -> Read
// but for the trailing white space Read trims.
func FuzzTraceRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 1<<20 {
			t.Skip("lines near the scanner's 1 MiB limit are TestReadErrors' case")
		}
		var got []Entry
		err := Read(bytes.NewReader(data), collect(&got))
		for _, e := range got {
			if e.Count < 1 {
				t.Fatalf("delivered entry with count %d: %+v", e.Count, e)
			}
		}

		lines := bytes.Split(data, []byte("\n"))
		var want []Entry
		firstBad := 0
		for i, ln := range lines {
			if Read(bytes.NewReader(ln), collect(&want)) != nil {
				firstBad = i + 1
				break
			}
		}
		if !slices.EqualFunc(got, want, sameEntry) {
			t.Fatalf("stream delivered %+v, its lines one at a time %+v", got, want)
		}
		switch {
		case firstBad == 0 && err != nil:
			t.Fatalf("every line reads alone, the stream fails: %v", err)
		case firstBad != 0 && (err == nil || !strings.Contains(err.Error(), fmt.Sprintf("tracefile: line %d:", firstBad))):
			t.Fatalf("line %d is malformed, the stream reports: %v", firstBad, err)
		}

		for _, ln := range lines {
			checkRoundTrip(t, string(ln), int64(len(ln)%3))
		}
	})
}

// checkRoundTrip writes one entry and reads it back. Multi-line SQL must be
// refused; Read trims each line, so trailing white space is not preserved and
// SQL that is blank once trimmed cannot be represented at all.
func checkRoundTrip(t *testing.T, sql string, count int64) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	err := w.Write(Entry{At: at, Count: count, SQL: sql})
	if strings.ContainsAny(sql, "\n\r") {
		if err == nil {
			t.Fatalf("Write accepted multi-line SQL %q", sql)
		}
		return
	}
	if err != nil {
		t.Fatalf("Write(%q): %v", sql, err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := Entry{At: at, Count: max(count, 1), SQL: strings.TrimRightFunc(sql, unicode.IsSpace)}
	if want.SQL == "" {
		return
	}
	var got []Entry
	if err := Read(&buf, collect(&got)); err != nil {
		t.Fatalf("Read of written %q: %v", sql, err)
	}
	if len(got) != 1 || !sameEntry(got[0], want) {
		t.Fatalf("wrote %+v, read back %+v", want, got)
	}
}
