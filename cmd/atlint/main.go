// Command atlint runs the repo-specific static-analysis suite
// (internal/lint) over the module: allocation-free hot paths, lock
// discipline, context threading, fault-site registration and error
// wrapping. It exits non-zero when any diagnostic survives suppression, so
// it gates make lint / make check / CI.
//
// Usage:
//
//	atlint [-json] [-summary] [-C dir] [packages...]
//
// Packages default to ./... relative to -C (default: the current
// directory, which must lie inside the module). -json emits a
// machine-readable report (one array of {file,line,col,analyzer,message})
// on stdout for CI artifact upload; the human format matches go vet.
// -summary appends a per-analyzer finding count to stderr.
//
// Exit codes: 0 clean, 1 findings, 2 usage or internal error, 3 the
// loader failed or the patterns matched no packages. 3 is distinct from 0
// on purpose: a typo'd pattern analyzes nothing, and "nothing analyzed"
// must never read as "clean" in CI.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"atmatrix/internal/faultinject"
	"atmatrix/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("atlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as JSON")
	summary := fs.Bool("summary", false, "print per-analyzer finding counts to stderr")
	dir := fs.String("C", ".", "module directory to analyze from")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: atlint [-json] [-summary] [-C dir] [packages...]\n\nAnalyzers:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := lint.NewLoader(*dir, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 3
	}
	pkgs, err := loader.Packages()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 3
	}
	if len(pkgs) == 0 {
		fmt.Fprintf(stderr, "atlint: patterns %q matched no packages\n", patterns)
		return 3
	}

	// The manifest the faultsite analyzer validates against is the one
	// compiled into this binary — atlint lives in the same module, so the
	// two cannot drift.
	runner := lint.NewRunner(faultinject.SiteSet(), lint.All()...)
	var diags []lint.Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, runner.Package(pkg)...)
	}
	diags = append(diags, runner.Finish()...)

	if *jsonOut {
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if *summary {
		printSummary(stderr, diags)
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "atlint: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}

// printSummary writes one line per analyzer with its finding count,
// including zero counts so CI logs show which analyzers actually ran.
func printSummary(w io.Writer, diags []lint.Diagnostic) {
	counts := map[string]int{}
	for _, a := range lint.All() {
		counts[a.Name] = 0
	}
	for _, d := range diags {
		counts[d.Analyzer]++
	}
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "atlint summary (%d finding(s)):\n", len(diags))
	for _, name := range names {
		fmt.Fprintf(w, "  %-14s %d\n", name, counts[name])
	}
}
