package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"atmatrix/internal/core"
)

// runTraced is the -trace 1 run of one workload. It has three parts:
//
//  1. the HTTP cycle against the real binary, first untraced and then with
//     client-side spans on and /metrics scraped before and after
//     (driver.trace_overhead_pct is the second's latency_p50_ms over the
//     first's);
//  2. the onion replay of every request kind in this process (replay.go);
//  3. the fixed-input probes (probe.go, cluster.go).
//
// It reports the per-layer metrics and writes every span to
// results/trace_<workload>.json.
func runTraced(def workloadDef, set *settings) (*runResult, error) {
	p, err := prepare(def, set)
	if err != nil {
		return nil, err
	}
	defer p.cleanup()
	w := p.w
	fmt.Fprintf(set.Log, "workload %s seed %d (traced): build %.2fs, generate %.2fs, reference %.2fs\n", w.Name, set.Seed, p.BuildS, w.GenS, w.RefS)
	ms := metricSet{}
	rec := newRecorder()
	ms.set("driver.build_s", p.BuildS)
	ms.set("driver.gen_s", w.GenS)

	loop, pingMS, err := tracedHTTP(p, set, rec, ms)
	if err != nil {
		return nil, err
	}
	restoreGC := matchServerGC(set, ms["catalog.resident_bytes"])
	r, err := replayWorkload(p, set, rec, ms)
	restoreGC()
	if err != nil {
		return nil, err
	}
	rows := r.onion(loop, pingMS)
	printOnion(set.Log, rows)
	var agree, selfMS []float64
	for _, o := range rows {
		if o.hasServerTimes {
			agree = append(agree, o.ClockedMS/o.ServerMS)
			selfMS = append(selfMS, maxf(o.SelfMS, 0))
		}
	}
	ms.set("service.self_ms", geomean(selfMS))
	ms.set("driver.replay_agreement", geomean(agree))
	if a := geomean(agree); a < 0.85 || a > 1.15 {
		fmt.Fprintf(set.Log, "  WARNING: driver.replay_agreement %.3f is outside [0.85, 1.15]: the replay does not explain the server\n", a)
	}

	if err := runProbes(set, p.cfg, ms); err != nil {
		return nil, err
	}

	fmt.Fprintf(set.Log, "\n  spans\n")
	rec.Report(set.Log)
	tracePath := filepath.Join(set.ResultDir, "trace_"+w.Name+".json")
	if err := rec.WriteFile(tracePath, map[string]any{"workload": w.Name, "seed": set.Seed, "atserve_flags": serverFlags()}); err != nil {
		return nil, err
	}
	fmt.Fprintf(set.Log, "  wrote %s\n", tracePath)

	res := &runResult{Workload: w.Name, Seed: set.Seed, Seconds: set.Seconds, Attempted: loop.Attempted, Failed: loop.Failed, Failures: loop.Failures}
	res.Kinds = kindRows(loop, w.kinds())
	res.Correct = res.Failed == 0
	if res.Metrics, err = ms.render(perLayer); err != nil {
		return nil, err
	}
	return res, nil
}

// matchServerGC makes the collector run during the replay about as often as
// it runs in the server. The driver's live heap (operands, upload bodies,
// references) is many times the server's, so under the default GOGC the replay
// would collect that many times more rarely, and allocation-heavy calls
// (Repartition, finalize) replayed at half the server's time. The server's
// live heap is taken as its resident catalog bytes plus the runtime's 4 MiB
// minimum heap; the percentage is set so that the driver allocates the same
// volume between collections.
func matchServerGC(set *settings, serverResident float64) (restore func()) {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	serverLive := serverResident + 4<<20
	pct := int(100 * serverLive / float64(m.HeapAlloc))
	if pct >= 100 {
		return func() {}
	}
	if pct < 1 {
		pct = 1
	}
	fmt.Fprintf(set.Log, "replay: driver live heap %d MiB, server about %d MiB: GC percent %d during the replay\n", m.HeapAlloc>>20, int64(serverLive)>>20, pct)
	old := debug.SetGCPercent(pct)
	return func() { debug.SetGCPercent(old) }
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// tracedHTTP runs part 1 and sets the atserve.*, service.queue/retries,
// catalog counter and driver overhead metrics. It returns the traced window.
func tracedHTTP(p *prepared, set *settings, rec *Recorder, ms metricSet) (loop *loopResult, pingMS float64, err error) {
	w := p.w
	srv, _, err := p.setUp()
	if err != nil {
		return nil, 0, err
	}
	defer srv.stop()
	ref := newHostRef()
	if _, err := srv.runLoop(w, seconds(set.WarmupS), nil, nil); err != nil {
		return nil, 0, err
	}
	plain, err := srv.runLoop(w, seconds(set.Seconds*0.2), nil, nil)
	if err != nil {
		return nil, 0, err
	}
	before, err := srv.scrape()
	if err != nil {
		return nil, 0, err
	}
	if loop, err = srv.runLoop(w, seconds(set.Seconds*0.3), rec, ref); err != nil {
		return nil, 0, err
	}
	after, err := srv.scrape()
	if err != nil {
		return nil, 0, err
	}
	if pingMS, err = srv.ping(100); err != nil {
		return nil, 0, err
	}
	ms.set("atserve.ping_ms", pingMS)
	ms.set("host.slowdown", median(loop.Host))
	delta := func(name string) float64 { return after[name] - before[name] }
	cycles := float64(len(loop.CycleMS))
	kinds := w.kinds()

	var httpSelf, queue, p90 []float64
	for _, st := range w.kindSteps() {
		p90 = append(p90, quantile(loop.latencies(st.Kind), 0.9))
		if !st.hasResult() {
			continue
		}
		var q []float64
		for _, o := range loop.ByKind[st.Kind] {
			if o.Failure == "" {
				q = append(q, float64(o.Resp.QueueNS)/1e6)
			}
		}
		httpSelf = append(httpSelf, median(loop.latencies(st.Kind))-median(loop.serverMS(st.Kind)))
		queue = append(queue, median(q))
	}
	ms.set("atserve.http_self_ms", geomean(httpSelf))
	ms.set("atserve.latency_p90_ms", geomean(p90))
	ms.set("atserve.boot_ms", srv.BootMS)
	ms.set("atserve.rejected", delta("atserve_jobs_rejected_total")+delta("atserve_brownout_shed_total")+float64(loop.Rejected))
	ms.set("service.queue_ms", geomean(queue))
	ms.set("service.retries", delta("atserve_retries_total"))
	ms.set("catalog.spills", delta("atserve_catalog_spills_total")/cycles)
	ms.set("catalog.reloads", delta("atserve_catalog_reloads_total")/cycles)
	ms.set("catalog.hits", delta("atserve_catalog_hits_total")/cycles)
	ms.set("catalog.misses", delta("atserve_catalog_misses_total")/cycles)
	ms.set("catalog.resident_bytes", after["atserve_catalog_resident_bytes"])
	ms.set("driver.samples_min", float64(loop.minSamples(kinds)))
	ms.set("driver.trace_overhead_pct", 100*(loop.latencyP50(kinds)/plain.latencyP50(kinds)-1))

	// Bytes on disk right after the last storing request of a cycle (the
	// deletes that follow remove them again): one more cycle, outside any
	// timing, stopping to look.
	var disk int64
	if w.Durable {
		last := 0
		for i := range w.Cycle {
			if w.Cycle[i].Store != "" {
				last = i
			}
		}
		for i := range w.Cycle {
			if o := srv.do(&w.Cycle[i]); o.Failure != "" {
				return nil, 0, fmt.Errorf("disk-bytes cycle, %s: %s", w.Cycle[i].Kind, o.Failure)
			}
			if i == last {
				if disk, err = srv.diskBytes(); err != nil {
					return nil, 0, err
				}
			}
		}
	}
	ms.set("catalog.disk_bytes", float64(disk))
	perNNZ := 0.0
	if w.nnzSum > 0 {
		perNNZ = float64(disk) / float64(w.nnzSum)
	}
	ms.set("catalog.disk_bytes_per_nnz", perNNZ)
	return loop, pingMS, nil
}

// replayWorkload runs part 2 and sets the metrics that come from it.
func replayWorkload(p *prepared, set *settings, rec *Recorder, ms metricSet) (*replay, error) {
	r, err := newReplay(p, rec)
	if err != nil {
		return nil, err
	}
	perKind := seconds(set.Seconds * 0.02)
	if err := r.cycles(seconds(set.Seconds * 0.3)); err != nil {
		return nil, err
	}
	estRatio, err := r.leaves(perKind)
	if err != nil {
		return nil, err
	}
	if err := r.variants(perKind); err != nil {
		return nil, err
	}
	if err := r.setupOperands(seconds(set.Seconds * 0.05)); err != nil {
		return nil, err
	}
	if err := r.close(); err != nil {
		return nil, err
	}
	w := p.w

	// catalog and mmio/partition: medians over every span of the name.
	med := func(level, name string) float64 { return rec.Med(level, "", name) }
	ms.set("catalog.acquire_us", med(level2, "catalog.acquire")*1e3)
	ms.set("catalog.reload_ms", med(level2, "catalog.reload"))
	ms.set("catalog.delete_ms", med(level1, "catalog.delete"))
	var loadSelf []float64
	for _, kind := range rec.Kinds(level1, "catalog.load") {
		loadSelf = append(loadSelf, maxf(0, rec.Med(level1, kind, "catalog.load")-rec.Med(level2, kind, "mmio.read")-rec.Med(level2, kind, "core.partition")))
	}
	ms.set("catalog.load_self_ms", geomean(loadSelf))
	var part, sortMS, countMS, buildMS []float64
	for _, kind := range rec.Kinds(level2, "core.partition") {
		part = append(part, rec.Med(level2, kind, "core.partition"))
	}
	for _, ps := range r.part {
		sortMS, countMS, buildMS = append(sortMS, millis(ps.SortTime)), append(countMS, millis(ps.CountTime)), append(buildMS, millis(ps.BuildTime))
	}
	ms.set("core.partition_ms", geomean(part))
	ms.set("core.partition_sort_ms", median(sortMS))
	ms.set("core.partition_count_ms", median(countMS))
	ms.set("core.partition_build_ms", median(buildMS))
	var repart []float64
	for _, level := range []string{level2, level3} {
		for _, kind := range rec.Kinds(level, "core.repartition") {
			repart = append(repart, rec.Med(level, kind, "core.repartition"))
		}
	}
	ms.set("core.repartition_ms", geomean(repart))
	var tilesSp, tilesD int
	count := func(m *core.ATMatrix) { sp, d := m.TileCount(); tilesSp, tilesD = tilesSp+sp, tilesD+d }
	for _, op := range w.Operands {
		count(op.M)
	}
	for i := range w.Cycle {
		if w.Cycle[i].Op == opPut {
			count(w.Cycle[i].Put.M)
		}
	}
	ms.set("core.tiles_sparse", float64(tilesSp))
	ms.set("core.tiles_dense", float64(tilesD))

	setMultMetrics(ms, r, set.Log)
	setExprMetrics(ms, r)

	var dmap, dest []float64
	for _, kind := range rec.Kinds(level3, "density.map") {
		dmap, dest = append(dmap, rec.Med(level3, kind, "density.map")), append(dest, rec.Med(level3, kind, "density.estimate_product"))
	}
	ms.set("density.map_ms", geomean(dmap))
	ms.set("density.estimate_product_ms", geomean(dest))
	ms.set("density.nnz_est_ratio", geomean(estRatio))
	return r, nil
}

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// setMultMetrics reports the ATMULT phase split from the MultStats the l2
// core.MultiplyOpt calls returned: per kind the median of each field, then the
// geomean over kinds for times and the sum over kinds (one cycle's worth) for
// counts. Phase times other than estimate and verify are busy times summed
// across workers, reported as such, not as spans.
func setMultMetrics(ms metricSet, r *replay, w io.Writer) {
	type field struct {
		name string
		get  func(*core.MultStats) float64
	}
	times := []field{
		{"core.wall_ms", func(s *core.MultStats) float64 { return millis(s.WallTime) }},
		{"core.estimate_ms", func(s *core.MultStats) float64 { return millis(s.EstimateTime) }},
		{"core.optimize_ms", func(s *core.MultStats) float64 { return millis(s.OptimizeTime) }},
		{"core.convert_ms", func(s *core.MultStats) float64 { return millis(s.ConvertTime) }},
		{"core.multiply_ms", func(s *core.MultStats) float64 { return millis(s.MultiplyTime) }},
		{"core.finalize_ms", func(s *core.MultStats) float64 { return millis(s.FinalizeTime) }},
		{"core.verify_ms", func(s *core.MultStats) float64 { return millis(s.VerifyTime) }},
		{"core.unattributed_ms", func(s *core.MultStats) float64 {
			phases := s.EstimateTime + s.OptimizeTime + s.ConvertTime + s.MultiplyTime + s.FinalizeTime + s.VerifyTime
			return maxf(0, millis(s.WallTime-phases))
		}},
		{"core.write_threshold", func(s *core.MultStats) float64 { return s.WriteThreshold }},
	}
	counts := []field{
		{"core.contributions", func(s *core.MultStats) float64 { return float64(s.Contributions) }},
		{"core.conversions", func(s *core.MultStats) float64 { return float64(s.Conversions) }},
		{"core.target_tiles", func(s *core.MultStats) float64 { return float64(s.TargetTiles) }},
		{"core.outer_calls", func(s *core.MultStats) float64 { return float64(s.OuterKernelCalls) }},
		{"core.gustavson_calls", func(s *core.MultStats) float64 { return float64(s.GustavsonKernelCalls) }},
		{"sched.tasks_stolen", func(s *core.MultStats) float64 { return float64(s.TasksStolen) }},
	}
	perKind := func(f field) []float64 {
		var out []float64
		for _, kind := range r.w.kinds() {
			var vals []float64
			for _, s := range r.mult[kind] {
				vals = append(vals, f.get(s))
			}
			if len(vals) > 0 {
				out = append(out, median(vals))
			}
		}
		return out
	}
	if len(r.mult) > 0 {
		fmt.Fprintf(w, "\n  ATMULT phases per kind (ms, median of the l2 MultStats; optimize/convert/multiply/finalize are busy times summed over workers)\n  %-11s", "kind")
		for _, f := range times[:8] {
			fmt.Fprintf(w, " %12s", strings.TrimSuffix(strings.TrimPrefix(f.name, "core."), "_ms"))
		}
		fmt.Fprintln(w)
	}
	for _, kind := range r.w.kinds() {
		if len(r.mult[kind]) == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-11s", kind)
		for _, f := range times[:8] {
			var vals []float64
			for _, s := range r.mult[kind] {
				vals = append(vals, f.get(s))
			}
			fmt.Fprintf(w, " %12.3f", median(vals))
		}
		fmt.Fprintln(w)
	}
	for _, f := range times {
		ms.set(f.name, geomean(perKind(f)))
	}
	for _, f := range counts {
		ms.set(f.name, sum(perKind(f)))
	}
	var scratch float64
	var local, remote int64
	for _, stats := range r.mult {
		for _, s := range stats {
			scratch = maxf(scratch, float64(s.ScratchBytes))
		}
		if n := len(stats); n > 0 && stats[n-1].Numa != nil {
			local, remote = local+stats[n-1].Numa.LocalBytes(), remote+stats[n-1].Numa.RemoteBytes()
		}
	}
	ms.set("core.scratch_bytes", scratch)
	share := 0.0
	if local+remote > 0 {
		share = float64(local) / float64(local+remote)
	}
	ms.set("numa.local_share", share)

	var plain, eph, speedup []float64
	for _, kind := range r.w.kinds() {
		if len(r.mult[kind]) == 0 {
			continue
		}
		plain = append(plain, r.rec.Med(level2, kind, "core.plain_spspsp"))
		eph = append(eph, r.rec.Med(level2, kind, "core.multiply_opt_ephemeral"))
		speedup = append(speedup, r.rec.Med(level2, kind, "core.multiply_opt_1x1")/r.rec.Med(level2, kind, "core.multiply_opt"))
	}
	ms.set("core.plain_spspsp_ms", geomean(plain))
	ms.set("core.ephemeral_wall_ms", geomean(eph))
	ms.set("sched.speedup", geomean(speedup))
}

func setExprMetrics(ms metricSet, r *replay) {
	var parse, plan, exec, verify []float64
	var fused float64
	var peak int64
	for _, kind := range r.rec.Kinds(level2, "expr.execute") {
		parse = append(parse, r.rec.Med(level2, kind, "expr.parse")*1e3)
		plan = append(plan, r.rec.Med(level2, kind, "expr.plan"))
		exec = append(exec, r.rec.Med(level2, kind, "expr.execute"))
		verify = append(verify, r.rec.Med(level2, kind, "expr.verify"))
		if st := r.exec[kind]; len(st) > 0 {
			fused += float64(st[len(st)-1].FusedStages)
			if b := st[len(st)-1].PeakIntermediateBytes; b > peak {
				peak = b
			}
		}
	}
	ms.set("expr.parse_us", geomean(parse))
	ms.set("expr.plan_ms", geomean(plan))
	ms.set("expr.execute_ms", geomean(exec))
	ms.set("expr.verify_ms", geomean(verify))
	ms.set("expr.fused_stages", fused)
	ms.set("expr.peak_intermediate_bytes", float64(peak))
	ms.set("expr.materialized_ms", r.rec.Med(level2, "", "expr.eval_materialized"))
	ms.set("expr.corechain_ms", r.rec.Med(level2, "", "core.multiply_chain_opt"))
}

// runProbes runs part 3.
func runProbes(set *settings, cfg core.Config, ms metricSet) error {
	w := set.Log
	arrayBytes, llc := triadArrayBytes(set.Quick)
	gemm := gemmGFLOPS(256, seconds(0.2))
	triad := triadGBs(arrayBytes)
	ms.set("host.gemm_gflops", gemm)
	ms.set("host.triad_gbs", triad)
	fmt.Fprintf(w, "\n  host: gemm %.2f GFLOP/s (256² float64, register-blocked scalar Go, 1 thread); triad %.2f GB/s (3 arrays of %d MiB each; detected LLC %d MiB; 1 thread)\n",
		gemm, triad, arrayBytes>>20, llc>>20)
	perCall := seconds(0.03)
	if set.Quick {
		perCall = 0
	}
	classes, times := kernelProbe(ms, w, gemm, triad, perCall)
	costModelProbe(ms, w, classes, times)
	if err := schedProbe(ms, cfg); err != nil {
		return err
	}
	if err := serializeProbe(ms, set.Seed, cfg); err != nil {
		return err
	}
	return clusterProbe(ms, w, set.Seed, cfg, set.Quick)
}
