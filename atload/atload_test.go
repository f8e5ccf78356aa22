package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestManifestMatchesTables pins BENCHMARK.json to the metric and workload
// tables it is generated from (`atload -manifest`), and the tables to the
// limits of the benchmark contract.
func TestManifestMatchesTables(t *testing.T) {
	root, err := findRoot("")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if want := buildManifest(); !reflect.DeepEqual(onDisk, want) {
		t.Fatalf("BENCHMARK.json is stale: regenerate it with `go run -C atload . -manifest > BENCHMARK.json`")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		t.Helper()
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("metric %s: malformed unit %q", n, u)
		}
	}
	for _, w := range onDisk.Workloads {
		check(w.Name, "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range onDisk.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, m := range onDisk.PerLayer {
		check(m.Name, m.Unit)
	}
	if n := len(onDisk.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(onDisk.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(onDisk.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(data))
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, latency []float64) string {
		f := &resultFile{Workloads: []workloadSummary{{Name: "mult_dense", Metrics: map[string]metricSummary{}}}}
		for _, d := range endToEnd {
			vals := []float64{10, 10, 10}
			if d.Name == "latency_p50_ms" {
				vals = latency
			}
			f.Workloads[0].Metrics[d.Name] = metricSummary{Unit: d.Unit, Better: d.Better, Bound: d.Bound, Median: median(vals), Values: vals}
		}
		path := filepath.Join(dir, name)
		if err := f.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("old.json", []float64{10, 10, 10})
	var out bytes.Buffer
	if err := compareFiles(base, write("same.json", []float64{10.1, 10.2, 10.3}), &out); err != nil {
		t.Fatalf("within the bound: %v\n%s", err, &out)
	}
	out.Reset()
	if err := compareFiles(base, write("worse.json", []float64{13, 13, 13}), &out); err == nil || !strings.Contains(out.String(), "worse") {
		t.Fatalf("30%% slower must be reported worse, got err=%v\n%s", err, &out)
	}
	out.Reset()
	if err := compareFiles(base, write("noisy.json", []float64{6, 10, 14}), &out); err != nil || !strings.Contains(out.String(), "unresolved") {
		t.Fatalf("a spread wider than the bound must be unresolved, got err=%v\n%s", err, &out)
	}
}

// contractLine is the last line of standard output.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runBinary builds atload once per test binary and runs it with args.
func runBinary(t *testing.T, bin string, args ...string) (stdout string, last contractLine, err error) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err = cmd.Run()
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &last); jerr != nil && err == nil {
		t.Fatalf("last line of output is not the result object: %v\n%s\n%s", jerr, out.String(), errb.String())
	}
	if err != nil {
		t.Logf("atload %v: %v\n%s", args, err, errb.String())
	}
	return out.String(), last, err
}

// TestSmoke drives the real atserve binary in -quick mode: every workload and
// every metric of BENCHMARK.json must appear exactly once, with its unit and
// nothing failed; and a deliberately wrong reference must turn into failures
// and a non-zero exit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives the real binary; skipped with -short")
	}
	root, err := findRoot("")
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "atload")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	m := buildManifest()
	results := filepath.Join(t.TempDir(), "BENCH_load.json")

	stdout, last, err := runBinary(t, bin, "-root", root, "-quick", "-out", results)
	if err != nil {
		t.Fatalf("quick run failed:\n%s", stdout)
	}
	if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
		t.Fatalf("quick run: correct=%v attempted=%d failed=%d", last.Correct, last.Attempted, last.Failed)
	}
	for _, w := range m.Workloads {
		if n := strings.Count(stdout, "\n== "+w.Name+" "); n != 1 {
			t.Errorf("workload %s appears %d times in the output", w.Name, n)
		}
		for _, d := range m.EndToEnd {
			v, ok := last.Metrics[w.Name+"."+d.Name]
			if !ok || v.Unit != d.Unit {
				t.Errorf("%s.%s: missing from the result line or unit %q != %q", w.Name, d.Name, v.Unit, d.Unit)
			}
			if v.Value <= 0 {
				t.Errorf("%s.%s = %g, end-to-end metrics are never 0", w.Name, d.Name, v.Value)
			}
		}
	}
	for _, d := range m.EndToEnd {
		line := regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(d.Name) + ` +[-+0-9.e]+ ` + regexp.QuoteMeta(d.Unit) + `$`)
		if n := len(line.FindAllString(stdout, -1)); n != len(m.Workloads) {
			t.Errorf("metric %s printed %d times with unit %s, want once per workload", d.Name, n, d.Unit)
		}
	}
	data, err := os.ReadFile(results)
	if err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`"claim": null\s*}\s*$`).Match(data) {
		t.Errorf("result file does not end with \"claim\": null")
	}

	// The traced run on the workload with the most moving parts.
	stdout, last, err = runBinary(t, bin, "-root", root, "-quick", "-trace", "1", "-workload", "ingest_store")
	if err != nil {
		t.Fatalf("quick traced run failed:\n%s", stdout)
	}
	if len(last.Metrics) != len(m.PerLayer) {
		t.Errorf("traced run reports %d metrics, BENCHMARK.json declares %d", len(last.Metrics), len(m.PerLayer))
	}
	for _, d := range m.PerLayer {
		if v, ok := last.Metrics[d.Name]; !ok || v.Unit != d.Unit {
			t.Errorf("per-layer metric %s: missing or unit %q != %q", d.Name, v.Unit, d.Unit)
		}
	}
	if last.Metrics["catalog.spills"].Value < 1 || last.Metrics["catalog.reloads"].Value < 1 {
		t.Errorf("ingest_store must spill and reload every cycle, got %g and %g", last.Metrics["catalog.spills"].Value, last.Metrics["catalog.reloads"].Value)
	}
	for _, want := range []string{"driver.trace_overhead_pct", "driver.replay_agreement"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("traced output does not print %s", want)
		}
	}
	if _, err := os.Stat(filepath.Join(root, "atload", "results", "trace_ingest_store.json")); err != nil {
		t.Errorf("no span file: %v", err)
	}

	// A wrong reference must be caught.
	_, last, err = runBinary(t, bin, "-root", root, "-quick", "-wrong-ref", "-workload", "mult_sparse")
	if err == nil || last.Failed == 0 || last.Correct {
		t.Errorf("wrong reference: err=%v failed=%d correct=%v; want a non-zero exit and failures", err, last.Failed, last.Correct)
	}
}
