// Package tracefile reads and writes query trace files in the format the
// qb5000 CLI consumes: one query per line as
//
//	RFC3339-timestamp <TAB> count <TAB> SQL
//
// or the two-field variant without a count (count = 1):
//
//	RFC3339-timestamp <TAB> SQL
//
// Lines that are empty or start with '#' are skipped. The three-field form
// lets aggregated replays (many identical arrivals in one interval) stay
// compact. Each line is read with surrounding white space trimmed, so the
// SQL keeps its leading but not its trailing white space, and SQL that is
// blank once trimmed cannot be represented.
package tracefile

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"qb5000/internal/preprocess"
)

// Entry is one trace line: the arrival record the Pre-Processor folds.
type Entry = preprocess.Observation

// Writer emits trace entries.
type Writer struct {
	w   *bufio.Writer
	err error
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Write appends one entry. Multi-line SQL is rejected because the format is
// line-oriented.
func (tw *Writer) Write(e Entry) error {
	if tw.err != nil {
		return tw.err
	}
	if strings.ContainsAny(e.SQL, "\n\r") {
		return fmt.Errorf("tracefile: SQL contains newline")
	}
	if e.Count <= 0 {
		e.Count = 1
	}
	_, tw.err = fmt.Fprintf(tw.w, "%s\t%d\t%s\n", e.At.UTC().Format(time.RFC3339), e.Count, e.SQL)
	return tw.err
}

// Flush commits buffered output.
func (tw *Writer) Flush() error {
	if tw.err != nil {
		return tw.err
	}
	return tw.w.Flush()
}

// Read parses a trace stream, invoking fn per entry. It stops at the first
// malformed line — or the first the scanner cannot deliver: one over 1 MiB
// (bufio.ErrTooLong) or cut short by a read error — reporting its line
// number.
func Read(r io.Reader, fn func(Entry) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		e, err := parseLine(text)
		if err != nil {
			return fmt.Errorf("tracefile: line %d: %w", line, err)
		}
		if err := fn(e); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("tracefile: line %d: %w", line+1, err)
	}
	return nil
}

func parseLine(text string) (Entry, error) {
	ts, rest, ok := strings.Cut(text, "\t")
	if !ok {
		return Entry{}, fmt.Errorf("expected timestamp<TAB>...")
	}
	at, err := time.Parse(time.RFC3339, strings.TrimSpace(ts))
	if err != nil {
		return Entry{}, fmt.Errorf("bad timestamp: %v", err)
	}
	// Optional count field: present when the second field is an integer and
	// a third field follows.
	if countStr, sql, ok := strings.Cut(rest, "\t"); ok {
		if count, err := strconv.ParseInt(strings.TrimSpace(countStr), 10, 64); err == nil {
			if count <= 0 {
				return Entry{}, fmt.Errorf("non-positive count %d", count)
			}
			return Entry{At: at, Count: count, SQL: sql}, nil
		}
	}
	return Entry{At: at, Count: 1, SQL: rest}, nil
}
