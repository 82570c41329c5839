package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"io"
	"path/filepath"
	"sort"
	"strings"
)

// This file is the driver-facing output layer: machine-readable finding
// formats (JSON for scripting, SARIF 2.1.0 for code-scanning UIs and CI
// artifacts), the baseline store that lets CI fail only on *new* findings
// while a sweep lands, and the //lint:ignore inventory behind `qb5000vet
// -debt`. Paths are rendered relative to a caller-supplied root (the module
// directory) so output is stable across checkouts.

// relTo renders filename relative to root; absolute paths outside root (or
// an empty root) pass through unchanged.
func relTo(root, filename string) string {
	if root == "" {
		return filename
	}
	rel, err := filepath.Rel(root, filename)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filename
	}
	return filepath.ToSlash(rel)
}

// jsonFinding is the -format=json wire form of one finding.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// WriteJSON emits findings as a JSON array with root-relative paths.
func WriteJSON(w io.Writer, root string, findings []Finding) error {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, jsonFinding{
			File:     relTo(root, f.Pos.Filename),
			Line:     f.Pos.Line,
			Column:   f.Pos.Column,
			Analyzer: f.Analyzer,
			Message:  f.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// SARIF 2.1.0, minimally: one run, one rule per analyzer, one result per
// finding. Only the fields code-scanning consumers actually read.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID        string    `json:"id"`
	ShortDesc sarifText `json:"shortDescription"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifText       `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	Physical sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	Artifact sarifArtifact `json:"artifactLocation"`
	Region   sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// WriteSARIF emits findings as a SARIF 2.1.0 log. analyzers populates the
// rule table; the pseudo-analyzer "lint" (directive hygiene) is always
// included so its results resolve.
func WriteSARIF(w io.Writer, root string, analyzers []*Analyzer, findings []Finding) error {
	rules := []sarifRule{{ID: "lint", ShortDesc: sarifText{Text: "//lint:ignore directive hygiene"}}}
	for _, a := range analyzers {
		rules = append(rules, sarifRule{ID: a.Name, ShortDesc: sarifText{Text: a.Doc}})
	}
	sort.Slice(rules, func(i, j int) bool { return rules[i].ID < rules[j].ID })

	results := make([]sarifResult, 0, len(findings))
	for _, f := range findings {
		results = append(results, sarifResult{
			RuleID:  f.Analyzer,
			Level:   "error",
			Message: sarifText{Text: f.Message},
			Locations: []sarifLocation{{Physical: sarifPhysical{
				Artifact: sarifArtifact{URI: relTo(root, f.Pos.Filename)},
				Region:   sarifRegion{StartLine: f.Pos.Line, StartColumn: f.Pos.Column},
			}}},
		})
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{{Tool: sarifTool{Driver: sarifDriver{Name: "qb5000vet", Rules: rules}}, Results: results}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

// ---- Baseline ----

// A Baseline records accepted findings as "file|analyzer|message" keys with
// occurrence counts. Keys carry no line numbers, so unrelated edits that
// shift a finding do not break the baseline; moving a finding to a new file
// or changing its message does, which is the conservative direction.
type Baseline struct {
	Counts map[string]int `json:"counts"`
}

func baselineKey(root string, f Finding) string {
	return relTo(root, f.Pos.Filename) + "|" + f.Analyzer + "|" + f.Message
}

// NewBaseline captures the given findings as an accepted baseline.
func NewBaseline(root string, findings []Finding) *Baseline {
	b := &Baseline{Counts: make(map[string]int)}
	for _, f := range findings {
		b.Counts[baselineKey(root, f)]++
	}
	return b
}

// ReadBaseline decodes a baseline written by Write.
func ReadBaseline(r io.Reader) (*Baseline, error) {
	b := &Baseline{}
	if err := json.NewDecoder(r).Decode(b); err != nil {
		return nil, fmt.Errorf("decoding baseline: %w", err)
	}
	if b.Counts == nil {
		b.Counts = make(map[string]int)
	}
	return b, nil
}

// Write encodes the baseline as stable, diff-friendly JSON.
func (b *Baseline) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// Filter splits findings into those not covered by the baseline (fresh —
// CI should fail on these) and reports baseline entries that no longer
// match anything (stale — the debt was paid and the entry should be
// deleted). Each baseline count absorbs that many matching findings.
func (b *Baseline) Filter(root string, findings []Finding) (fresh []Finding, stale []string) {
	remaining := make(map[string]int, len(b.Counts))
	for k, v := range b.Counts {
		remaining[k] = v
	}
	for _, f := range findings {
		k := baselineKey(root, f)
		if remaining[k] > 0 {
			remaining[k]--
			continue
		}
		fresh = append(fresh, f)
	}
	for k, v := range remaining {
		if v > 0 {
			stale = append(stale, k)
		}
	}
	sort.Strings(stale)
	return fresh, stale
}

// ---- Suppression-debt inventory ----

// A DirectiveUse is one //lint:ignore occurrence, attributed to every
// analyzer it names.
type DirectiveUse struct {
	Pos       token.Position
	Analyzers []string
	Reason    string
}

// DirectiveUses inventories the well-formed //lint:ignore directives in the
// unit's files (malformed ones are already findings). Results are sorted by
// position.
func DirectiveUses(fset *token.FileSet, files []*ast.File) []DirectiveUse {
	var out []DirectiveUse
	for _, file := range files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				names, reason := m[1], strings.TrimSpace(m[2])
				if names == "" || reason == "" {
					continue
				}
				var analyzers []string
				for _, name := range strings.Split(names, ",") {
					if knownAnalyzer(name) {
						analyzers = append(analyzers, name)
					}
				}
				if len(analyzers) == 0 {
					continue
				}
				out = append(out, DirectiveUse{Pos: fset.Position(c.Pos()), Analyzers: analyzers, Reason: reason})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return out
}
