// Command nezha-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	nezha-bench -list
//	nezha-bench -exp fig9
//	nezha-bench -exp all [-quick] [-seed 42]
//
// Each experiment prints the same rows/series the paper reports, plus
// notes on what to compare. EXPERIMENTS.md records paper-vs-measured.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"nezha/internal/experiments"
)

// validate checks the invocation before any experiment runs: flag
// parsing stops at the first positional argument, so "nezha-bench fig9
// -quick" would drop -quick and run every experiment at full scale.
func validate(args []string, exp string) error {
	if len(args) > 0 {
		return fmt.Errorf("unexpected arguments %q (name one experiment with -exp; flags go first)", args)
	}
	if _, ok := experiments.ByID(exp); !ok && exp != "all" {
		return fmt.Errorf("unknown experiment %q; -list shows the catalogue", exp)
	}
	return nil
}

func main() {
	var (
		exp    = flag.String("exp", "all", "experiment id (-list shows the catalogue) or 'all'")
		quick  = flag.Bool("quick", false, "reduced populations and durations")
		seed   = flag.Int64("seed", 42, "random seed (same seed, same output)")
		list   = flag.Bool("list", false, "list available experiments")
		asJSON = flag.Bool("json", false, "emit machine-readable JSON instead of tables")
	)
	flag.Parse()
	if err := validate(flag.Args(), *exp); err != nil {
		fmt.Fprintln(os.Stderr, "nezha-bench:", err)
		os.Exit(2)
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-9s %s\n          paper: %s\n", e.ID, e.Title, e.Paper)
		}
		return
	}

	cfg := experiments.RunConfig{Seed: *seed, Quick: *quick}
	run := func(e experiments.Experiment) {
		start := time.Now()
		r := e.Run(cfg)
		if *asJSON {
			b, err := r.JSON()
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Println(string(b))
			return
		}
		fmt.Print(r.Render())
		fmt.Printf("(%s in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
	}

	if *exp == "all" {
		for _, e := range experiments.All() {
			run(e)
		}
		return
	}
	e, _ := experiments.ByID(*exp)
	run(e)
}
