package tracefile

import (
	"bufio"
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"
)

var at = time.Date(2018, 1, 2, 15, 4, 5, 0, time.UTC)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	in := []Entry{
		{At: at, Count: 1, SQL: "SELECT a FROM t WHERE x = 1"},
		{At: at.Add(time.Minute), Count: 42, SQL: "INSERT INTO t VALUES (2)"},
		{At: at.Add(2 * time.Minute), Count: 0, SQL: "DELETE FROM t"}, // 0 → 1
	}
	for _, e := range in {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	var out []Entry
	if err := Read(&buf, func(e Entry) error {
		out = append(out, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("read %d entries", len(out))
	}
	if !out[0].At.Equal(at) || out[0].SQL != in[0].SQL || out[0].Count != 1 {
		t.Fatalf("entry 0 = %+v", out[0])
	}
	if out[1].Count != 42 {
		t.Fatalf("entry 1 count = %d", out[1].Count)
	}
	if out[2].Count != 1 {
		t.Fatalf("zero count not normalized: %+v", out[2])
	}
}

func TestReadTwoFieldForm(t *testing.T) {
	input := "2018-01-02T15:04:05Z\tSELECT 1 FROM t\n"
	var got []Entry
	if err := Read(strings.NewReader(input), func(e Entry) error {
		got = append(got, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Count != 1 || got[0].SQL != "SELECT 1 FROM t" {
		t.Fatalf("got %+v", got)
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	input := "# header\n\n2018-01-02T15:04:05Z\tSELECT 1 FROM t\n"
	n := 0
	if err := Read(strings.NewReader(input), func(Entry) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("read %d entries", n)
	}
}

func TestReadErrors(t *testing.T) {
	// A line over the scanner's 1 MiB limit, after two lines that read fine.
	tooLong := "2018-01-02T15:04:05Z\tSELECT 1\n# comment\n2018-01-02T15:04:05Z\tSELECT '" + strings.Repeat("x", 1<<20) + "'\n"
	bad := []struct {
		in   string
		line string
		is   error // the cause errors.Is must still find, if any
	}{
		{"no tab here\n", "line 1", nil},
		{"not-a-time\tSELECT 1\n", "line 1", nil},
		{"2018-01-02T15:04:05Z\t-3\tSELECT 1\n", "line 1", nil},
		{tooLong, "line 3", bufio.ErrTooLong},
	}
	for _, tc := range bad {
		in := tc.in[:min(len(tc.in), 40)]
		err := Read(strings.NewReader(tc.in), func(Entry) error { return nil })
		if err == nil {
			t.Errorf("%q: expected error", in)
			continue
		}
		if !strings.Contains(err.Error(), "tracefile: "+tc.line+":") {
			t.Errorf("%q: error lacks %q: %v", in, tc.line, err)
		}
		if tc.is != nil && !errors.Is(err, tc.is) {
			t.Errorf("%q: errors.Is(err, %v) = false: %v", in, tc.is, err)
		}
	}
}

func TestWriteRejectsMultilineSQL(t *testing.T) {
	w := NewWriter(&bytes.Buffer{})
	if err := w.Write(Entry{At: at, SQL: "SELECT\n1"}); err == nil {
		t.Fatal("expected newline rejection")
	}
}

// TestSQLWithTabsSurvives: the SQL field is the final field, so embedded
// tabs must round-trip. (The count field disambiguates because it parses as
// an integer.)
func TestSQLWithTabsSurvives(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	sql := "SELECT a FROM t WHERE s = 'tab\there'"
	if err := w.Write(Entry{At: at, Count: 2, SQL: sql}); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	var got Entry
	if err := Read(&buf, func(e Entry) error { got = e; return nil }); err != nil {
		t.Fatal(err)
	}
	if got.SQL != sql {
		t.Fatalf("SQL = %q, want %q", got.SQL, sql)
	}
}
