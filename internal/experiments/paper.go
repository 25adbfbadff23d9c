package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Run is one row of the paper's experiment table: an experiment's ID and
// the tables it prints.
type Run struct {
	ID     string
	Tables func() ([]*Table, error)
}

// Paper is every experiment of docs/DESIGN.md §3's index, in print order,
// with the seeds and sizes EXPERIMENTS.md records. cmd/treads-experiments
// prints it, and testdata/paper.golden pins what it prints.
var Paper = []Run{
	{"F1", tables(func() (F1Result, error) { return F1Figure1(2018) }, F1Result.Table)},
	{"E1", tables(func() (E1Result, error) { return E1Validation(2018) }, E1Result.Table)},
	{"E2", tables(func() ([]E2Row, error) { return E2Cost(7, 100) }, e2WithFleetCost)},
	{"E3", tables(func() ([]E3Row, error) { return E3Scale(7, []int{2, 4, 16, 64, 256, 1024}) }, E3Table)},
	{"E2b", tables(func() ([]E2FundingRow, error) { return E2Funding(7, []int{100, 1000, 10000}), nil }, E2FundingTable)},
	{"E7", tables(func() ([]E7Row, error) { return E7BidSweep(7, []float64{0.5, 1, 2, 4, 10, 20}, 200, 5) }, E7Table)},
	{"E4", tables(func() ([]E4Row, error) { return E4Privacy(7, []int{25, 100, 400, 1600}, 10) }, E4Table)},
	{"E5", tables(func() (E5Result, error) { return E5Completeness(7, 120) }, E5TableOf)},
	{"E6", tables(func() ([]E6Row, error) { return E6ToS(7, 100) }, E6Table)},
	{"E8", tables(func() ([]E8Row, error) {
		return E8Crowdsourcing(7, []int{1, 10, 50, 100}, []int{1, 3}, []float64{0, 0.1, 0.3, 0.6, 0.9})
	}, E8Table)},
	{"E9", tables(func() ([]E9Row, error) { return E9CorrelationBaseline(7, []int{5, 10, 25, 50, 100, 250}, 5) }, E9Table)},
	{"E10", tables(func() (E10Result, error) { return E10OptInPaths(7) }, E10Table)},
	{"E11", tables(func() ([]E11Row, error) { return E11IntentTransparency(7) }, E11Table)},
	{"E12", tables(func() ([]E12Row, error) { return E12RevealLatency(7, 30, 60, 21) }, E12Table)},
}

// tables adapts an experiment and its table builder to a Run's Tables.
func tables[R any](run func() (R, error), table func(R) *Table) func() ([]*Table, error) {
	return func() ([]*Table, error) {
		r, err := run()
		if err != nil {
			return nil, err
		}
		return []*Table{table(r)}, nil
	}
}

// e2WithFleetCost is E2's table with the default workload's fleet cost as
// its last note.
func e2WithFleetCost(rows []E2Row) *Table {
	t := E2Table(rows)
	pop := E2Population(7, 1000)
	t.Notes = append(t.Notes, fmt.Sprintf(
		"fleet cost (default workload): %d users, %.1f attrs/user -> $%.2f total ($%.4f/user; paper's 50-attr example: $%.2f)",
		pop.Users, pop.MeanAttrs, pop.TotalUSD, pop.PerUserUSD, pop.PerUser50USD))
	return t
}

// Select returns the rows of Paper that only names, comma-separated, in
// the order it names them; an empty only selects every row. An unknown ID
// is an error that lists the valid ones.
func Select(only string) ([]Run, error) {
	if only == "" {
		return Paper, nil
	}
	byID := make(map[string]Run, len(Paper))
	ids := make([]string, len(Paper))
	for i, run := range Paper {
		byID[run.ID] = run
		ids[i] = run.ID
	}
	var runs []Run
	for _, id := range strings.Split(only, ",") {
		run, ok := byID[strings.TrimSpace(id)]
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s)", id, strings.Join(ids, ","))
		}
		runs = append(runs, run)
	}
	return runs, nil
}

// Write runs each of runs and renders its tables to w, one blank line
// between tables: aligned text, or CSV (which omits notes) if csv is set.
func Write(w io.Writer, runs []Run, csv bool) error {
	first := true
	for _, run := range runs {
		tabs, err := run.Tables()
		if err != nil {
			return fmt.Errorf("%s: %w", run.ID, err)
		}
		for _, t := range tabs {
			if !first {
				fmt.Fprintln(w)
			}
			first = false
			if csv {
				t.FprintCSV(w)
			} else {
				t.Fprint(w)
			}
		}
	}
	return nil
}
