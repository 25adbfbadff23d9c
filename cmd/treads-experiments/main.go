// Command treads-experiments reproduces the paper's tables and figures:
// every row of experiments.Paper (F1, E1–E12, the index in docs/DESIGN.md
// §3), deterministic, in the order EXPERIMENTS.md records them.
//
//	treads-experiments [-only ID,ID...] [-csv]
//
// With no -only, every experiment prints; -only E3,E7 prints those two.
// Tables are separated by one blank line.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/treads-project/treads/internal/experiments"
)

func main() {
	only := flag.String("only", "", "comma-separated experiment IDs to print (default: all)")
	csv := flag.Bool("csv", false, "emit tables as CSV (notes omitted)")
	flag.Parse()

	runs, err := experiments.Select(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "treads-experiments:", err)
		os.Exit(2)
	}
	if err := experiments.Write(os.Stdout, runs, *csv); err != nil {
		fmt.Fprintln(os.Stderr, "treads-experiments:", err)
		os.Exit(1)
	}
}
