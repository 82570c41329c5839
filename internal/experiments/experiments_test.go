package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "table2", "table3", "table4",
		"fig1", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
		"abl-ensemble", "abl-featuresize", "abl-interval", "abl-kdtree",
	}
	ids := IDs()
	if len(ids) != len(want) {
		t.Fatalf("registry has %d experiments, want %d: %v", len(ids), len(want), ids)
	}
	for i, id := range want {
		if ids[i] != id {
			t.Fatalf("order mismatch at %d: %v", i, ids)
		}
		if _, ok := Describe(id); !ok {
			t.Fatalf("no description for %s", id)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("nope", Options{}, &buf); err == nil {
		t.Fatal("expected unknown-experiment error")
	}
}

// goldenReports are the quick-mode reports with no wall-clock figure in them:
// the same trace, clustering and model seeds give the same bytes on every
// machine. Their goldens under testdata/ were written by the commit before
// the histories' window read replaced the per-minute loops, so a difference
// is a change in what the pipeline computes, not a new baseline to accept.
var goldenReports = map[string]bool{
	"table2": true, "fig3": true, "fig5": true, "fig6": true, "fig13": true, "fig14": true,
}

// TestFastExperimentsProduceOutput runs the cheap experiments end-to-end in
// quick mode, sanity-checks their reports and compares the deterministic
// ones with their goldens. The expensive ones (fig7, fig9–fig12, fig15,
// fig16) are exercised by the benchmark harness.
func TestFastExperimentsProduceOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiments still replay days of trace")
	}
	cases := map[string][]string{
		"table1":     {"admissions", "bustracker", "mooc", "SELECT%"},
		"table2":     {"reduction ratio"},
		"table3":     {"PSRNN", "kernel"},
		"table4":     {"Pre-Processor", "RNN"},
		"fig1":       {"BusTracker cycles", "deadline", "distinct templates"},
		"fig3":       {"largest cluster", "query 1"},
		"fig5":       {"top-5"},
		"fig6":       {"4+"},
		"fig13":      {"rho=0.9"},
		"fig14":      {"1-hour horizon"},
		"fig17":      {"re-clustered", "predicted"},
		"abl-kdtree": {"brute force"},
	}
	for id, substrings := range cases {
		var buf bytes.Buffer
		if err := Run(id, Options{Quick: true, Seed: 1}, &buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		out := buf.String()
		for _, sub := range substrings {
			if !strings.Contains(out, sub) {
				t.Errorf("%s output missing %q:\n%s", id, sub, out)
			}
		}
		if !goldenReports[id] {
			continue
		}
		want, err := os.ReadFile(filepath.Join("testdata", id+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if out != string(want) {
			t.Errorf("%s report differs from testdata/%s.golden:\n--- got\n%s--- want\n%s", id, id, out, want)
		}
	}
}
