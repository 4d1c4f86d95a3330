// Package experiments regenerates every table and figure in the
// paper's evaluation (§6, Appendices A–B). Each experiment is a pure
// function from a RunConfig to a Result holding printable tables and
// series; cmd/nezha-bench runs them full-size, and the repository's
// root bench_test.go wraps them as testing.B benchmarks at reduced
// scale.
//
// Absolute numbers are simulation-scaled (the substrate is a
// discrete-event model, not the authors' testbed); what must match
// the paper is the shape: who wins, saturation knees, crossover
// points. EXPERIMENTS.md records paper-vs-measured for every row.
package experiments

import (
	"encoding/json"
	"fmt"
	"sort"
)

// RunConfig parameterizes an experiment run.
type RunConfig struct {
	// Seed drives all randomness; equal seeds give identical output.
	Seed int64
	// Quick shrinks populations and durations for smoke runs and
	// testing.B benchmarks.
	Quick bool
}

// Result is an experiment's printable outcome. JSON marshals it as
// is: tables as header+rows, series as [t,v] pairs.
type Result struct {
	ID     string    `json:"id"`
	Title  string    `json:"title"`
	Tables []*Table  `json:"tables,omitempty"`
	Series []*Series `json:"series,omitempty"`
	Notes  []string  `json:"notes,omitempty"`
}

// Render formats the result for the terminal.
func (r *Result) Render() string {
	out := fmt.Sprintf("=== %s — %s ===\n", r.ID, r.Title)
	for _, t := range r.Tables {
		out += t.String() + "\n"
	}
	for _, s := range r.Series {
		out += renderSeries(s)
	}
	for _, n := range r.Notes {
		out += "note: " + n + "\n"
	}
	return out
}

func renderSeries(s *Series) string {
	out := fmt.Sprintf("series %s (%d points):\n", s.Name, len(s.Points))
	step := 1
	if len(s.Points) > 40 {
		step = len(s.Points) / 40
	}
	for i := 0; i < len(s.Points); i += step {
		out += fmt.Sprintf("  t=%-10.3f %v\n", s.Points[i][0], s.Points[i][1])
	}
	return out
}

// JSON renders the result as machine-readable JSON.
func (r *Result) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// Experiment couples an ID to its runner.
type Experiment struct {
	ID    string
	Title string
	// Paper summarizes what the paper reports, for EXPERIMENTS.md.
	Paper string
	Run   func(cfg RunConfig) *Result
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every registered experiment, sorted by ID.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID finds one experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
