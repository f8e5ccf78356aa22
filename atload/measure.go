package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"atmatrix/internal/core"
)

// settings are the knobs of one run that are not part of the fixed
// configuration: how long to measure and where to work.
type settings struct {
	Root      string // checkout root (holds cmd/atserve and BENCHMARK.json)
	BuildDir  string // <root>/.bench_build: binaries, caches, scratch
	ResultDir string // <root>/atload/results: traces and per-run JSON
	Seed      int64
	Seconds   float64 // measured window
	WarmupS   float64 // discarded closed-loop warm-up before the window
	MinSample int     // a kind with fewer good samples fails the run
	Setups    int     // set-ups per run; setup_s is their median
	Quick     bool
	WrongRef  bool
	Log       io.Writer // human-readable report
}

// kindRow is one request kind's client-side figures, for the report.
type kindRow struct {
	Kind  string  `json:"kind"`
	N     int     `json:"n"`
	P50MS float64 `json:"p50_ms"`
	P90MS float64 `json:"p90_ms"`
}

// runResult is one run of one workload.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     int                    `json:"trace"`
	Seconds   float64                `json:"seconds"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Kinds     []kindRow              `json:"kinds"`
	Metrics   map[string]metricValue `json:"metrics"`
	// HostSlowdown is the host-speed factor the timing metrics were divided
	// by (hostref.go), Raw the same metrics as measured.
	HostSlowdown float64            `json:"host_slowdown,omitempty"`
	Raw          map[string]float64 `json:"raw,omitempty"`
}

// prepared is what every run of a workload needs before a server starts.
type prepared struct {
	cfg    core.Config
	bin    string
	w      *workload
	runDir string
	BuildS float64
}

// prepare builds atserve and generates the workload's inputs.
func prepare(def workloadDef, set *settings) (*prepared, error) {
	if err := os.MkdirAll(set.BuildDir, 0o755); err != nil {
		return nil, err
	}
	p := &prepared{cfg: benchConfig()}
	t0 := time.Now()
	bin, err := buildServer(set.Root, set.BuildDir)
	if err != nil {
		return nil, err
	}
	p.bin, p.BuildS = bin, time.Since(t0).Seconds()
	if p.w, err = buildWorkload(def, set.Seed, p.cfg, set.WrongRef); err != nil {
		return nil, err
	}
	if p.runDir, err = os.MkdirTemp(set.BuildDir, "run-"); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *prepared) cleanup() { os.RemoveAll(p.runDir) }

// setUp starts a fresh server and brings it to the state the measured window
// starts from: ready, operands uploaded (parse + partition + admit), and one
// pass of the cycle done so that first-request costs (worker spawn, scratch
// growth, page faults) are paid. Returns the server and the seconds it took.
func (p *prepared) setUp() (*server, float64, error) {
	t0 := time.Now()
	srv, err := startServer(p.bin, p.runDir, p.w)
	if err != nil {
		return nil, 0, err
	}
	if err := srv.upload(p.w); err != nil {
		srv.stop()
		return nil, 0, err
	}
	for i := range p.w.Cycle {
		// A wrong answer does not stop the run: the window counts it as failed.
		if o := srv.do(&p.w.Cycle[i]); o.Failure != "" && !o.Wrong {
			srv.stop()
			return nil, 0, fmt.Errorf("set-up pass, %s: %s", p.w.Cycle[i].Kind, o.Failure)
		}
	}
	return srv, time.Since(t0).Seconds(), nil
}

// runEndToEnd is the untraced run: set-up (several times, median reported),
// warm-up, measured window, end-to-end metrics.
func runEndToEnd(def workloadDef, set *settings) (*runResult, error) {
	p, err := prepare(def, set)
	if err != nil {
		return nil, err
	}
	defer p.cleanup()
	w := p.w
	fmt.Fprintf(set.Log, "workload %s seed %d: build %.2fs, generate %.2fs, reference %.2fs\n", w.Name, set.Seed, p.BuildS, w.GenS, w.RefS)

	ref := newHostRef()
	var setups, setupHost []float64
	var srv *server
	for i := 0; i < set.Setups; i++ {
		srv.stop() // the previous set-up's server; nil the first time
		var s float64
		if srv, s, err = p.setUp(); err != nil {
			return nil, err
		}
		setups, setupHost = append(setups, s), append(setupHost, ref.sample())
	}
	defer srv.stop()

	if _, err := srv.runLoop(w, seconds(set.WarmupS), nil, nil); err != nil {
		return nil, err
	}
	loop, err := srv.runLoop(w, seconds(set.Seconds), nil, ref)
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSSMiB()
	if err != nil {
		return nil, err
	}

	res := &runResult{Workload: w.Name, Seed: set.Seed, Seconds: set.Seconds, Attempted: loop.Attempted, Failed: loop.Failed, Failures: loop.Failures}
	kinds := w.kinds()
	res.Kinds = kindRows(loop, kinds)
	if n := loop.minSamples(kinds); n < set.MinSample {
		res.Failed++
		res.Failures = append(res.Failures, fmt.Sprintf("a request kind has %d good samples in the window, fewer than %d", n, set.MinSample))
	}
	res.Correct = res.Failed == 0

	good := float64(loop.Attempted - loop.Failed)
	if good < 1 {
		return nil, fmt.Errorf("no request succeeded: %v", loop.Failures)
	}
	// Timing metrics are reported at nominal host speed: divided by how much
	// slower than nominal the driver's own reference job ran during the same
	// window (during the set-ups, for setup_s). See hostref.go.
	host, hostSetup := median(loop.Host), median(setupHost)
	latency, rate := loop.latencyP50(kinds), float64(len(w.Cycle))/(median(loop.CycleMS)/1e3)
	cpu, setup := loop.CPUSec*1e3/good, median(setups)
	res.HostSlowdown = host
	res.Raw = map[string]float64{"latency_p50_ms": latency, "req_per_s": rate, "cpu_ms_per_req": cpu, "setup_s": setup}
	ms := metricSet{}
	ms.set("latency_p50_ms", latency/host)
	ms.set("req_per_s", rate*host)
	ms.set("cpu_ms_per_req", cpu/host)
	ms.set("peak_rss_mb", rss)
	ms.set("result_bytes_per_nnz", loop.bytesPerNNZ(w))
	ms.set("setup_s", setup/hostSetup)
	if res.Metrics, err = ms.render(endToEnd); err != nil {
		return nil, err
	}
	fmt.Fprintf(set.Log, "host slowdown %.3f during the window (%d samples), %.3f during set-up; as measured: latency_p50_ms %.4g, req_per_s %.4g, cpu_ms_per_req %.4g, setup_s %.4g\n",
		host, len(loop.Host), hostSetup, latency, rate, cpu, setup)
	return res, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func kindRows(loop *loopResult, kinds []string) []kindRow {
	var rows []kindRow
	for _, k := range kinds {
		l := loop.latencies(k)
		rows = append(rows, kindRow{Kind: k, N: len(l), P50MS: median(l), P90MS: quantile(l, 0.9)})
	}
	return rows
}
