// Command atload is the repository's benchmark: it builds cmd/atserve, makes
// its inputs from -seed, drives four workloads against the real binary over
// loopback HTTP with one closed-loop client, checks every reply against an
// in-process reference, and prints every metric by name with its unit. With
// -trace 1 it produces the per-layer metrics instead, by timing calls into
// each layer's public functions from this package (README.md).
//
// The last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// options are the command-line flags.
type options struct {
	root, workload, out      string
	seed                     int64
	seconds                  float64
	trace, runs              int
	quick, compare, manifest bool
	wrongRef                 bool
}

func main() {
	var o options
	flag.StringVar(&o.root, "root", "", "checkout root (default: the nearest parent directory holding cmd/atserve)")
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all four)")
	flag.Int64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same operands")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "measured window in seconds")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	flag.BoolVar(&o.quick, "quick", false, "smoke mode: 1 s warm-up, 3 s window, 3-sample floor, small probes; not comparable")
	flag.IntVar(&o.runs, "runs", 1, "repeat every workload this many times and report median and quartiles")
	flag.StringVar(&o.out, "out", "", "write the result JSON here (default with all workloads: atload/results/BENCH_load.json)")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: atload -compare old.json new.json")
	flag.BoolVar(&o.manifest, "manifest", false, "print BENCHMARK.json and exit")
	flag.BoolVar(&o.wrongRef, "wrong-ref", false, "test hook: corrupt one reference so that a check must fail")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "atload:", err)
		os.Exit(1)
	}
}

// errFailed marks a run whose result was printed but did not pass.
var errFailed = errors.New("a check failed")

func run(o options) error {
	if o.manifest {
		return writeManifest(os.Stdout)
	}
	if o.compare {
		if flag.NArg() != 2 {
			return errors.New("-compare takes two result files: old.json new.json")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	if o.runs < 1 || o.seconds <= 0 {
		return errors.New("-runs and -seconds must be positive")
	}
	root, err := findRoot(o.root)
	if err != nil {
		return err
	}
	set := &settings{
		Root: root, BuildDir: filepath.Join(root, ".bench_build"), ResultDir: filepath.Join(root, "atload", "results"),
		Seed: o.seed, Seconds: o.seconds, WarmupS: 2, MinSample: 10, Setups: 3,
		Quick: o.quick, WrongRef: o.wrongRef, Log: os.Stdout,
	}
	if o.quick {
		set.Seconds, set.WarmupS, set.MinSample, set.Setups = 3, 1, 3, 1
	}
	defs := workloadDefs
	if o.workload != "" {
		d, ok := lookupWorkload(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		defs = []workloadDef{d}
	}

	var all []*runResult
	for _, d := range defs {
		for i := 0; i < o.runs; i++ {
			var res *runResult
			if o.trace == 1 {
				res, err = runTraced(d, set)
			} else {
				res, err = runEndToEnd(d, set)
			}
			if err != nil {
				return err
			}
			res.Trace = o.trace
			printRun(set, res)
			all = append(all, res)
		}
	}
	file := newResultFile(set, o.trace, o.runs, all)
	out := o.out
	if out == "" && o.workload == "" {
		out = filepath.Join(set.ResultDir, "BENCH_load.json")
	}
	if out != "" {
		if err := file.write(out); err != nil {
			return err
		}
		fmt.Fprintf(set.Log, "wrote %s\n", out)
	}
	if o.runs > 1 {
		file.printSummary(set.Log)
	}
	return printContractLine(all, o.workload == "")
}

// findRoot returns the checkout root: the given directory, or the nearest
// parent of the working directory that holds cmd/atserve.
func findRoot(root string) (string, error) {
	if root != "" {
		return filepath.Abs(root)
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "atserve", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no cmd/atserve above the working directory; pass -root")
		}
		dir = parent
	}
}

// printRun prints one run: per-kind client figures, then every metric by name
// with its unit.
func printRun(set *settings, r *runResult) {
	w := set.Log
	fmt.Fprintf(w, "\n== %s  seed %d  trace %d  window %.0fs  attempted %d  failed %d\n", r.Workload, r.Seed, r.Trace, r.Seconds, r.Attempted, r.Failed)
	for _, k := range r.Kinds {
		fmt.Fprintf(w, "  kind %-11s n=%-5d p50 %10.3f ms   p90 %10.3f ms\n", k.Kind, k.N, k.P50MS, k.P90MS)
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", name, m.Value, m.Unit)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// printContractLine prints the final JSON line. One workload: its metrics by
// name. All workloads: the same object with names prefixed "<workload>.".
func printContractLine(all []*runResult, prefix bool) error {
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range all {
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		line.Correct = line.Correct && r.Correct
		for name, m := range r.Metrics {
			if prefix {
				name = r.Workload + "." + name
			}
			line.Metrics[name] = m // with -runs N the last run's value; medians are in the result file
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !line.Correct {
		return errFailed
	}
	return nil
}
