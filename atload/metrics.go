package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// metricDef declares one metric. The tables below are the source of
// BENCHMARK.json (`atload -manifest` prints it; the smoke test checks the
// committed file still matches).
type metricDef struct {
	Name, Unit, Better string
	Bound              float64 // end-to-end only: share of the parent's median it may worsen by
}

// runSeconds is the measured window BENCHMARK.json asks the driver for.
const runSeconds = 15

// endToEnd are the metrics a user of the service sees, reported per workload.
// The three request-timing metrics and setup_s are host-speed normalized
// (hostref.go). Bounds follow the spread measured over ten seeds on the
// 2-core reference host (README, "Run-to-run spread"): normalized timing
// spreads were 3-13 %, peak RSS up to 8 %, bytes per non-zero up to 2 % across
// seeds, and a bound is at least three times the typical spread; 0.25 is the
// largest the contract allows, and setup_s gets it because set-up is short and
// so the noisiest.
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"req_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_req", "ms", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
	{"result_bytes_per_nnz", "B", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// kernelNames are the nine tile kernels, kernelClasses the operand classes of
// bench_kernels_test.go.
var (
	kernelNames   = []string{"DDD", "SpDD", "DSpD", "SpSpD", "SpSpSp", "SpDSp", "DSpSp", "DDSp", "OuterSpSp"}
	kernelClasses = []kernelClass{{"hyper", 1024, 0.001}, {"sparse", 256, 0.05}, {"dense", 256, 1.0}}
)

type kernelClass struct {
	Name string
	N    int
	Rho  float64
}

// perLayer are the metrics of single layers, all from the traced run.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lo := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	hi := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	defs := []metricDef{
		lo("atserve.http_self_ms", "ms"), lo("atserve.ping_ms", "ms"), lo("atserve.latency_p90_ms", "ms"), lo("atserve.boot_ms", "ms"), lo("atserve.rejected", "count"),
		lo("service.queue_ms", "ms"), lo("service.self_ms", "ms"), lo("service.retries", "count"),
		lo("catalog.acquire_us", "us"), lo("catalog.load_self_ms", "ms"), lo("catalog.delete_ms", "ms"), lo("catalog.reload_ms", "ms"),
		lo("catalog.spills", "count"), lo("catalog.reloads", "count"), hi("catalog.hits", "count"), lo("catalog.misses", "count"),
		lo("catalog.resident_bytes", "B"), lo("catalog.disk_bytes", "B"), lo("catalog.disk_bytes_per_nnz", "B"),
		hi("mmio.read_binary_mbs", "MB/s"), hi("mmio.read_mtx_mbs", "MB/s"),
		lo("core.partition_ms", "ms"), lo("core.partition_sort_ms", "ms"), lo("core.partition_count_ms", "ms"), lo("core.partition_build_ms", "ms"),
		lo("core.repartition_ms", "ms"), lo("core.tiles_sparse", "count"), lo("core.tiles_dense", "count"),
		lo("core.wall_ms", "ms"), lo("core.estimate_ms", "ms"), lo("core.optimize_ms", "ms"), lo("core.convert_ms", "ms"),
		lo("core.multiply_ms", "ms"), lo("core.finalize_ms", "ms"), lo("core.verify_ms", "ms"), lo("core.unattributed_ms", "ms"),
		lo("core.contributions", "count"), lo("core.conversions", "count"), lo("core.target_tiles", "count"),
		lo("core.outer_calls", "count"), lo("core.gustavson_calls", "count"), lo("core.write_threshold", "ratio"), lo("core.scratch_bytes", "B"),
		lo("core.plain_spspsp_ms", "ms"), lo("core.ephemeral_wall_ms", "ms"),
		hi("core.write_atm_mbs", "MB/s"), hi("core.read_atm_mbs", "MB/s"), hi("core.frames_write_mbs", "MB/s"), hi("core.frames_read_mbs", "MB/s"),
		lo("core.atm_bytes_per_nnz", "B"),
		lo("density.map_ms", "ms"), lo("density.estimate_product_ms", "ms"), lo("density.nnz_est_ratio", "ratio"),
		lo("costmodel.choose_ns", "ns"), lo("costmodel.regret_max", "ratio"), lo("costmodel.regret_geomean", "ratio"), lo("costmodel.regret_max_calibrated", "ratio"),
	}
	for _, k := range kernelNames {
		for _, c := range kernelClasses {
			defs = append(defs, lo(fmt.Sprintf("kernels.%s.%s_us", k, c.Name), "us"))
		}
	}
	for _, k := range kernelNames {
		defs = append(defs, hi(fmt.Sprintf("kernels.%s_roof_frac", k), "ratio"))
	}
	return append(defs,
		hi("host.gemm_gflops", "GFLOP/s"), hi("host.triad_gbs", "GB/s"), lo("host.slowdown", "ratio"),
		lo("sched.dispatch_us", "us"), lo("sched.parallel_rows_us", "us"), lo("sched.tasks_stolen", "count"), hi("sched.speedup", "ratio"),
		hi("numa.local_share", "ratio"),
		lo("expr.parse_us", "us"), lo("expr.plan_ms", "ms"), lo("expr.execute_ms", "ms"), lo("expr.verify_ms", "ms"),
		hi("expr.fused_stages", "count"), lo("expr.peak_intermediate_bytes", "B"), lo("expr.materialized_ms", "ms"), lo("expr.corechain_ms", "ms"),
		lo("cluster.multiply_ref_ms", "ms"), lo("cluster.multiply_inline_ms", "ms"), lo("cluster.overhead_ratio", "ratio"), lo("cluster.shard_put_ms", "ms"),
		lo("cluster.ship_bytes", "B"), lo("cluster.ref_bytes", "B"), lo("cluster.merge_frames", "count"), lo("cluster.merge_peak_bytes", "B"),
		lo("driver.build_s", "s"), lo("driver.gen_s", "s"), hi("driver.samples_min", "count"), lo("driver.trace_overhead_pct", "%"), lo("driver.replay_agreement", "ratio"),
	)
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestLoad   `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestLayer  `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifestLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "atload/run.sh"},
		Paths:      []string{"atload"},
		RunSeconds: runSeconds,
	}
	for _, d := range workloadDefs {
		m.Workloads = append(m.Workloads, manifestLoad{d.Name, d.Why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestLayer{d.Name, d.Unit, d.Better})
	}
	return m
}

func writeManifest(f *os.File) error {
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(buildManifest())
}

// metricValue is one reported figure.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name and renders them against a definition
// table: every defined metric must have been set exactly once.
type metricSet map[string]float64

func (s metricSet) set(name string, v float64) {
	if _, dup := s[name]; dup {
		panic("atload: metric set twice: " + name) // a bug in the driver, not an input
	}
	s[name] = v
}

// render checks the set against defs and returns name → {value, unit}.
func (s metricSet) render(defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	known := map[string]bool{}
	var missing []string
	for _, d := range defs {
		known[d.Name] = true
		v, ok := s[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	var extra []string
	for name := range s {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	if len(missing)+len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics not reported: [%s]; reported but not declared: [%s]", strings.Join(missing, " "), strings.Join(extra, " "))
	}
	return out, nil
}
