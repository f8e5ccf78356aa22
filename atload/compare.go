package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"

	"atmatrix/internal/core"
)

// metricSummary is one metric of one workload over the repeated runs.
type metricSummary struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound,omitempty"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

type workloadSummary struct {
	Name    string                   `json:"name"`
	Why     string                   `json:"why"`
	Metrics map[string]metricSummary `json:"metrics"`
	Runs    []*runResult             `json:"runs"`
}

// resultFile is the JSON a run writes and -compare reads. Claim is always
// null: the benchmark measures, it does not claim.
type resultFile struct {
	Config    map[string]any    `json:"config"`
	Host      map[string]any    `json:"host"`
	Seed      int64             `json:"seed"`
	Trace     int               `json:"trace"`
	Runs      int               `json:"runs"`
	Seconds   float64           `json:"seconds"`
	Quick     bool              `json:"quick"`
	Workloads []workloadSummary `json:"workloads"`
	Claim     *string           `json:"claim"`
}

func newResultFile(set *settings, trace, runs int, all []*runResult) *resultFile {
	cfg := benchConfig()
	f := &resultFile{
		Config: map[string]any{
			"atserve_flags": serverFlags(), "scale": benchScale, "b_atomic": cfg.BAtomic,
			"sockets": cfg.Topology.Sockets, "cores_per_socket": cfg.Topology.CoresPerSocket,
			"verify": benchVerify, "rho_read": cfg.RhoRead, "rho_write": cfg.RhoWrite, "llc_bytes": cfg.LLCBytes,
			"load": "closed loop, 1 client, 1 keep-alive connection", "warmup_s": set.WarmupS, "setups_per_run": set.Setups,
		},
		Host: map[string]any{"nproc": runtime.NumCPU(), "detected_llc_bytes": core.DetectLLC(), "goos": runtime.GOOS, "goarch": runtime.GOARCH, "go": runtime.Version()},
		Seed: set.Seed, Trace: trace, Runs: runs, Seconds: set.Seconds, Quick: set.Quick,
	}
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	for _, r := range all {
		var ws *workloadSummary
		for i := range f.Workloads {
			if f.Workloads[i].Name == r.Workload {
				ws = &f.Workloads[i]
			}
		}
		if ws == nil {
			d, _ := lookupWorkload(r.Workload)
			f.Workloads = append(f.Workloads, workloadSummary{Name: r.Workload, Why: d.Why, Metrics: map[string]metricSummary{}})
			ws = &f.Workloads[len(f.Workloads)-1]
		}
		ws.Runs = append(ws.Runs, r)
		for _, d := range defs {
			m := ws.Metrics[d.Name]
			m.Unit, m.Better, m.Bound = d.Unit, d.Better, d.Bound
			m.Values = append(m.Values, r.Metrics[d.Name].Value)
			m.Median, m.Q1, m.Q3 = median(m.Values), quantile(m.Values, 0.25), quantile(m.Values, 0.75)
			ws.Metrics[d.Name] = m
		}
	}
	return f
}

func (f *resultFile) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printSummary prints median and quartiles per workload × metric.
func (f *resultFile) printSummary(w io.Writer) {
	defs := endToEnd
	if f.Trace == 1 {
		defs = perLayer
	}
	fmt.Fprintf(w, "\nsummary over %d runs (median [q1, q3], spread = (q3-q1)/median)\n", f.Runs)
	for _, ws := range f.Workloads {
		for _, d := range defs {
			m := ws.Metrics[d.Name]
			fmt.Fprintf(w, "  %-13s %-34s %14.6g [%.6g, %.6g] %s  spread %.2f%%\n", ws.Name, d.Name, m.Median, m.Q1, m.Q3, m.Unit, 100*spread(m.Values))
		}
	}
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints one row per workload × end-to-end metric: both medians,
// the ratio new/old, the bound and a verdict. "worse" means the new median is
// worse than the old by more than the bound; "unresolved" means it is not,
// but the spread between either side's repeated runs is wider than the bound,
// so the data cannot say "unchanged". Any "worse" is an error.
func compareFiles(oldPath, newPath string, w io.Writer) error {
	oldF, err := readResultFile(oldPath)
	if err != nil {
		return err
	}
	newF, err := readResultFile(newPath)
	if err != nil {
		return err
	}
	if oldF.Trace != 0 || newF.Trace != 0 {
		return fmt.Errorf("-compare takes end-to-end result files (trace 0)")
	}
	fmt.Fprintf(w, "%-13s %-22s %14s %14s %18s %7s  %s\n", "workload", "metric", "old median", "new median", "new/old", "bound", "verdict")
	worse := 0
	for _, nw := range newF.Workloads {
		var ow *workloadSummary
		for i := range oldF.Workloads {
			if oldF.Workloads[i].Name == nw.Name {
				ow = &oldF.Workloads[i]
			}
		}
		if ow == nil {
			fmt.Fprintf(w, "%-13s only in %s\n", nw.Name, newPath)
			continue
		}
		for _, d := range endToEnd {
			o, okO := ow.Metrics[d.Name]
			n, okN := nw.Metrics[d.Name]
			if !okO || !okN || o.Median == 0 {
				fmt.Fprintf(w, "%-13s %-22s missing on one side\n", nw.Name, d.Name)
				continue
			}
			ratio := n.Median / o.Median
			verdict := "ok"
			switch {
			case d.Better == "lower" && ratio > 1+d.Bound, d.Better == "higher" && ratio < 1-d.Bound:
				verdict = "worse"
				worse++
			case spread(o.Values) > d.Bound || spread(n.Values) > d.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-13s %-22s %14.6g %14.6g %9.4f of %-6.4g %6.1f%%  %s\n", nw.Name, d.Name, o.Median, n.Median, ratio, o.Median, 100*d.Bound, verdict)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than the bound allows", worse)
	}
	return nil
}
