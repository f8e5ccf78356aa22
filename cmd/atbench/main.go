// Command atbench runs the paper-reproduction experiments end to end and
// prints the tables/series corresponding to the paper's figures.
//
// Usage:
//
//	atbench -exp tab1|fig2|fig5|fig7|fig8|fig9|fig10|all [flags]
//
// Examples:
//
//	atbench -exp fig8 -scale 0.0625
//	atbench -exp fig10 -matrices R3,R7
//	atbench -exp fig2 -matrices R3
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"atmatrix/internal/exp"
	"atmatrix/internal/numa"
)

func main() {
	var (
		expName  = flag.String("exp", "all", "experiment: tab1, fig2, fig5, fig7, fig8, fig9, fig10, or all")
		scale    = flag.Float64("scale", 1.0/16, "linear scale factor relative to paper-size matrices")
		matrices = flag.String("matrices", "", "comma-separated Table I ids (default: experiment-specific)")
		flopCap  = flag.Float64("flopcap", 6e9, "skip dense approaches above this m·k·n budget (0 = never skip)")
		sockets  = flag.Int("sockets", 0, "simulated sockets (0 = detect)")
		cores    = flag.Int("cores", 0, "simulated cores per socket (0 = detect)")
		reps     = flag.Int("reps", 1, "repeat each timed measurement, keeping the fastest")
		csvDir   = flag.String("csv", "", "also export every table as CSV into this directory")
		memFrac  = flag.Float64("memlimit", 0, "flexible result memory limit as a fraction of the dense footprint (0 = unlimited)")
	)
	flag.Parse()
	if (*sockets > 0) != (*cores > 0) {
		missing := "-sockets"
		if *sockets > 0 {
			missing = "-cores"
		}
		fmt.Fprintf(os.Stderr, "atbench: %s missing: a simulated topology takes both -sockets and -cores\n", missing)
		os.Exit(2)
	}

	o := exp.DefaultOptions()
	o.Scale = *scale
	o.FlopCap = *flopCap
	o.Reps = *reps
	o.CSVDir = *csvDir
	o.MemLimitFrac = *memFrac
	o.Out = os.Stdout
	if *matrices != "" {
		o.IDs = strings.Split(*matrices, ",")
	}
	if *sockets > 0 {
		o.Topology = numa.Topology{Sockets: *sockets, CoresPerSocket: *cores}
	}

	runners := map[string]func(exp.Options) error{
		"tab1":  func(o exp.Options) error { _, err := exp.RunTab1(o); return err },
		"fig2":  func(o exp.Options) error { _, err := exp.RunFig2(o); return err },
		"fig5":  func(o exp.Options) error { _, err := exp.RunFig5(o); return err },
		"fig6":  func(o exp.Options) error { _, err := exp.RunFig6(o); return err },
		"fig7":  func(o exp.Options) error { _, err := exp.RunFig7(o); return err },
		"fig8":  func(o exp.Options) error { _, err := exp.RunFig8(o); return err },
		"fig9":  func(o exp.Options) error { _, err := exp.RunFig9(o); return err },
		"fig10": func(o exp.Options) error { _, err := exp.RunFig10(o); return err },
	}
	order := []string{"tab1", "fig2", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"}

	names := []string{*expName}
	if *expName == "all" {
		names = order
	}
	for _, name := range names {
		run, ok := runners[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "atbench: unknown experiment %q (want one of %s, all)\n",
				name, strings.Join(order, ", "))
			os.Exit(2)
		}
		if err := run(o); err != nil {
			fmt.Fprintf(os.Stderr, "atbench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
}
