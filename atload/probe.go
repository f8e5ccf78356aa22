package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"atmatrix/internal/core"
	"atmatrix/internal/costmodel"
	"atmatrix/internal/kernels"
	"atmatrix/internal/mat"
	"atmatrix/internal/mmio"
	"atmatrix/internal/sched"
)

// Probes measure one layer on fixed inputs, once per traced run; they do not
// depend on the workload (only, where a matrix is generated, on the seed).

// bestOf runs f at least min times, then until the budget is spent, and
// returns the fastest run in seconds: a probe asks what the layer can do, so
// the minimum is the statistic that the shared host disturbs least.
func bestOf(min int, budget time.Duration, f func()) float64 {
	best := math.Inf(1)
	start := time.Now()
	for i := 0; i < min || time.Since(start) < budget; i++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0).Seconds(); d < best {
			best = d
		}
	}
	return best
}

// --- host ceilings ---------------------------------------------------------

// gemmGFLOPS is the host's dense compute ceiling as scalar Go reaches it (the
// compiler emits neither SIMD nor fused multiply-add for amd64): a
// register-blocked row-major C += A·B on n×n float64 operands that fit the
// L2, single-threaded like the tile kernels. Of the blockings tried on the
// reference host (4×4 and 2×4 accumulator tiles, 1×4·k4, 1×8·k8), the 2×2
// C block over four k steps below was the fastest; it is on a par with
// kernels.DDD, so a DDD roofline fraction near 1 means "as fast as Go gets
// here", not "at the silicon's peak".
func gemmGFLOPS(n int, budget time.Duration) float64 {
	rng := rand.New(rand.NewSource(3))
	a, b, c := make([]float64, n*n), make([]float64, n*n), make([]float64, n*n)
	for i := range a {
		a[i], b[i] = rng.Float64(), rng.Float64()
	}
	sec := bestOf(3, budget, func() { gemmBlocked(c, a, b, n) })
	return 2 * float64(n) * float64(n) * float64(n) / sec / 1e9
}

// gemmBlocked requires n to be a multiple of 4. Two rows of C share every
// load of B; four k steps share every load and store of C.
func gemmBlocked(c, a, b []float64, n int) {
	for i := 0; i < n; i += 2 {
		c0 := c[i*n : (i+1)*n]
		c1 := c[(i+1)*n : (i+2)*n][:len(c0)]
		r0, r1 := a[i*n:(i+1)*n], a[(i+1)*n:(i+2)*n]
		for k := 0; k < n; k += 4 {
			x0, x1, x2, x3 := r0[k], r0[k+1], r0[k+2], r0[k+3]
			y0, y1, y2, y3 := r1[k], r1[k+1], r1[k+2], r1[k+3]
			b0 := b[k*n : (k+1)*n][:len(c0)]
			b1 := b[(k+1)*n : (k+2)*n][:len(c0)]
			b2 := b[(k+2)*n : (k+3)*n][:len(c0)]
			b3 := b[(k+3)*n : (k+4)*n][:len(c0)]
			for j := 0; j+2 <= len(c0); j += 2 {
				p0, p1, p2, p3 := b0[j], b1[j], b2[j], b3[j]
				q0, q1, q2, q3 := b0[j+1], b1[j+1], b2[j+1], b3[j+1]
				c0[j] += x0*p0 + x1*p1 + x2*p2 + x3*p3
				c1[j] += y0*p0 + y1*p1 + y2*p2 + y3*p3
				c0[j+1] += x0*q0 + x1*q1 + x2*q2 + x3*q3
				c1[j+1] += y0*q0 + y1*q1 + y2*q2 + y3*q3
			}
		}
	}
}

// memTotalBytes reads MemTotal from /proc/meminfo (0 when unavailable).
func memTotalBytes() int64 {
	f, err := os.Open("/proc/meminfo")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "MemTotal:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err == nil {
				return kb << 10
			}
		}
	}
	return 0
}

// triadArrayCap bounds each STREAM array. On the reference host (260 MiB L3
// reported) the measured rate is flat at ~11 GB/s from 128 MiB to 1040 MiB
// per array, while first-touching 3 GiB costs tens of seconds of kernel time;
// the three capped arrays together are still three times that cache and are
// streamed, so no line survives from one pass to the next.
const triadArrayCap = 256 << 20

// triadArrayBytes is the size of each STREAM array: four times the detected
// last-level cache, capped at an eighth of RAM and at triadArrayCap.
func triadArrayBytes(quick bool) (arrayBytes, llc int64) {
	llc = core.DetectLLC()
	arrayBytes = 4 * llc
	if ram := memTotalBytes(); ram > 0 && arrayBytes > ram/8 {
		arrayBytes = ram / 8
	}
	if arrayBytes > triadArrayCap {
		arrayBytes = triadArrayCap
	}
	if quick && arrayBytes > 32<<20 {
		arrayBytes = 32 << 20 // smoke mode only: fits the cache, not a bandwidth figure
	}
	return arrayBytes, llc
}

// triadGBs is the STREAM triad a[i] = b[i] + s·c[i], single-threaded,
// counting 24 bytes per element (two reads, one write).
func triadGBs(arrayBytes int64) float64 {
	n := int(arrayBytes / 8)
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	triad := func() {
		for i := range a {
			a[i] = b[i] + 3*c[i]
		}
	}
	triad() // first touch of a
	sec := bestOf(2, 0, triad)
	return 24 * float64(n) / sec / 1e9
}

// --- kernels ---------------------------------------------------------------

// classOperands is one operand class in both physical forms, with the exact
// product's shape figures the computed flops and bytes need.
type classOperands struct {
	class  kernelClass
	ad, bd *mat.Dense
	as, bs *mat.CSR
	madds  float64 // scalar multiply-adds of A·B: Σ_k nnz(A[:,k])·nnz(B[k,:])
	nnzC   float64 // structural non-zeros of A·B
	toDnS  float64 // seconds to convert one sparse operand to dense
}

// buildClass makes the operand pair exactly as bench_kernels_test.go does.
func buildClass(kc kernelClass) *classOperands {
	rng := rand.New(rand.NewSource(9))
	co := &classOperands{class: kc}
	if kc.Rho >= 1 {
		co.ad, co.bd = mat.RandomDense(rng, kc.N, kc.N), mat.RandomDense(rng, kc.N, kc.N)
		co.as, co.bs = co.ad.ToCSR(), co.bd.ToCSR()
	} else {
		nnz := int(kc.Rho * float64(kc.N) * float64(kc.N))
		ac, bc := mat.RandomCOO(rng, kc.N, kc.N, nnz), mat.RandomCOO(rng, kc.N, kc.N, nnz)
		co.ad, co.bd, co.as, co.bs = ac.ToDense(), bc.ToDense(), ac.ToCSR(), bc.ToCSR()
	}
	colA := make([]float64, kc.N)
	for _, c := range co.as.ColIdx {
		colA[c]++
	}
	for k := 0; k < kc.N; k++ {
		lo, hi := co.bs.RowRange(k)
		co.madds += colA[k] * float64(hi-lo)
	}
	scr := kernels.NewScratch()
	acc := scr.Acc(kc.N, kc.N)
	kernels.SpSpSp(acc, 0, 0, kernels.FullCSR(co.as), kernels.FullCSR(co.bs), scr.SPA())
	co.nnzC = float64(acc.ToCSR().NNZ())
	co.toDnS = bestOf(3, 0, func() { kernels.FullCSR(co.as).ToDense() })
	return co
}

// kernelRun returns the closure that executes kernel name once on co.
func kernelRun(name string, co *classOperands) func() {
	n := co.class.N
	a, b := kernels.FullCSR(co.as), kernels.FullCSR(co.bs)
	if strings.HasSuffix(name, "D") { // dense target: accumulate into one reused array
		c := mat.NewDense(n, n)
		switch name {
		case "DDD":
			return func() { kernels.DDD(c, co.ad, co.bd) }
		case "SpDD":
			return func() { kernels.SpDD(c, a, co.bd) }
		case "DSpD":
			return func() { kernels.DSpD(c, co.ad, b) }
		default:
			return func() { kernels.SpSpD(c, a, b) }
		}
	}
	scr := kernels.NewScratch() // sparse target: one reused worker arena, as in ATMULT's steady state
	switch name {
	case "SpSpSp":
		return func() { kernels.SpSpSp(scr.Acc(n, n), 0, 0, a, b, scr.SPA()) }
	case "SpDSp":
		return func() { kernels.SpDSp(scr.Acc(n, n), 0, 0, a, co.bd, scr.SPA()) }
	case "DSpSp":
		return func() { kernels.DSpSp(scr.Acc(n, n), 0, 0, co.ad, b, scr.SPA()) }
	case "DDSp":
		return func() { kernels.DDSp(scr.Acc(n, n), 0, 0, co.ad, co.bd, scr.SPA()) }
	default:
		return func() { kernels.OuterSpSp(scr.Acc(n, n), 0, 0, a, b, scr.Merge()) }
	}
}

// kernelKinds decodes a kernel name into the physical kinds of A, B and C.
func kernelKinds(name string) (ka, kb, kc mat.Kind) {
	if name == "OuterSpSp" {
		return mat.Sparse, mat.Sparse, mat.Sparse
	}
	var kinds []mat.Kind
	for rest := name; rest != ""; {
		if strings.HasPrefix(rest, "Sp") {
			kinds, rest = append(kinds, mat.Sparse), rest[2:]
		} else {
			kinds, rest = append(kinds, mat.DenseKind), rest[1:]
		}
	}
	return kinds[0], kinds[1], kinds[2]
}

// computedBytes is the compulsory traffic of one kernel call, computed from
// shapes and non-zero counts (not measured): each operand and the result
// once, in the representation the kernel reads or writes — 8 B per dense
// cell; 12 B per stored element plus 8 B per row pointer for CSR.
func computedBytes(name string, co *classOperands) float64 {
	n := float64(co.class.N)
	size := func(k mat.Kind, nnz float64) float64 {
		if k == mat.DenseKind {
			return 8 * n * n
		}
		return 12*nnz + 8*(n+1)
	}
	ka, kb, kc := kernelKinds(name)
	return size(ka, float64(co.as.NNZ())) + size(kb, float64(co.bs.NNZ())) + size(kc, co.nnzC)
}

// kernelHome is the class each kernel's roofline fraction is taken on: the
// class the optimizer sends it (and bench_kernels_test.go lists first).
var kernelHome = map[string]string{
	"DDD": "dense", "SpDD": "sparse", "DSpD": "sparse", "SpSpD": "sparse", "SpSpSp": "sparse",
	"SpDSp": "sparse", "DSpSp": "sparse", "DDSp": "sparse", "OuterSpSp": "hyper",
}

// kernelProbe times the nine kernels on the three classes and reports each
// kernel against the roofline min(gemm, triad × flops/byte) on its home class.
// It returns the times by kernel and class for the cost-model probe.
func kernelProbe(ms metricSet, w io.Writer, gemm, triad float64, perCall time.Duration) (map[string]*classOperands, map[string]map[string]float64) {
	classes := map[string]*classOperands{}
	times := map[string]map[string]float64{}
	fmt.Fprintf(w, "\n  kernels: useful flops = 2·Σ_k nnz(A[:,k])·nnz(B[k,:]); bytes = operands + result once, computed from shape and nnz\n")
	fmt.Fprintf(w, "  %-10s %-7s %12s %12s %12s %10s %10s\n", "kernel", "class", "us/call", "flops", "bytes", "flop/B", "GFLOP/s")
	for _, kc := range kernelClasses {
		co := buildClass(kc)
		classes[kc.Name] = co
		for _, k := range kernelNames {
			run := kernelRun(k, co)
			run() // warm up: grow arenas to their steady state
			sec := bestOf(3, perCall, run)
			if times[k] == nil {
				times[k] = map[string]float64{}
			}
			times[k][kc.Name] = sec
			ms.set(fmt.Sprintf("kernels.%s.%s_us", k, kc.Name), sec*1e6)
			flops, byts := 2*co.madds, computedBytes(k, co)
			fmt.Fprintf(w, "  %-10s %-7s %12.1f %12.4g %12.4g %10.3f %10.3f\n", k, kc.Name, sec*1e6, flops, byts, flops/byts, flops/sec/1e9)
			if kernelHome[k] == kc.Name {
				roof := math.Min(gemm, triad*flops/byts)
				ms.set(fmt.Sprintf("kernels.%s_roof_frac", k), flops/sec/1e9/roof)
			}
		}
	}
	return classes, times
}

// --- cost model ------------------------------------------------------------

func kernelName(ka, kb, kc mat.Kind) string {
	s := func(k mat.Kind) string {
		if k == mat.Sparse {
			return "Sp"
		}
		return "D"
	}
	return s(ka) + s(kb) + s(kc)
}

// regret replays the optimizer's decision for every operand class and target
// kind: the stored operand kinds are what the partitioner would store (dense
// for the dense class, sparse otherwise), the candidates are the kernels
// ChooseKernel may pick (keep or upgrade each sparse operand; for
// sparse×sparse→sparse also the outer-product kernel), each costed as its
// measured time plus the measured conversion time of upgraded operands.
// Regret is time(chosen) ÷ time(best); 1 means the model picked the winner.
func regret(p costmodel.Params, label string, classes map[string]*classOperands, times map[string]map[string]float64, w io.Writer) (max, geo float64) {
	var all []float64
	fmt.Fprintf(w, "\n  cost model (%s): chosen vs measured-best kernel\n", label)
	fmt.Fprintf(w, "  %-7s %-7s %-10s %-10s %8s\n", "class", "target", "chosen", "best", "regret")
	for _, kc := range kernelClasses {
		co := classes[kc.Name]
		stored := mat.Sparse
		if kc.Rho >= 1 {
			stored = mat.DenseKind
		}
		n := kc.N
		rhoA, rhoB, rhoC := co.as.Density(), co.bs.Density(), co.nnzC/float64(n)/float64(n)
		for _, target := range []mat.Kind{mat.DenseKind, mat.Sparse} {
			cost := map[string]float64{}
			kindsOf := []mat.Kind{stored}
			if stored == mat.Sparse {
				kindsOf = append(kindsOf, mat.DenseKind)
			}
			for _, ka := range kindsOf {
				for _, kb := range kindsOf {
					name := kernelName(ka, kb, target)
					t := times[name][kc.Name]
					if ka != stored {
						t += co.toDnS
					}
					if kb != stored {
						t += co.toDnS
					}
					cost[name] = t
				}
			}
			if stored == mat.Sparse && target == mat.Sparse {
				cost["OuterSpSp"] = times["OuterSpSp"][kc.Name]
			}
			plan := p.ChooseKernel(stored, stored, target, n, n, n, rhoA, rhoB, rhoC)
			chosen := kernelName(plan.KindA, plan.KindB, target)
			if chosen == "SpSpSp" && p.PreferOuter(n, n, n, rhoA, rhoB) {
				chosen = "OuterSpSp"
			}
			best := chosen
			for name, t := range cost {
				if t < cost[best] {
					best = name
				}
			}
			r := cost[chosen] / cost[best]
			all = append(all, r)
			tn := "dense"
			if target == mat.Sparse {
				tn = "sparse"
			}
			fmt.Fprintf(w, "  %-7s %-7s %-10s %-10s %8.3f\n", kc.Name, tn, chosen, best, r)
			if r > 1.25 {
				fmt.Fprintf(w, "  WARNING: cost model (%s) picks %s on %s→%s, %.2fx slower than %s\n", label, chosen, kc.Name, tn, r, best)
			}
			if r > max {
				max = r
			}
		}
	}
	return max, geomean(all)
}

func costModelProbe(ms metricSet, w io.Writer, classes map[string]*classOperands, times map[string]map[string]float64) {
	def := costmodel.Default()
	const calls = 200000
	var sink float64
	sec := bestOf(3, 0, func() {
		for i := 0; i < calls; i++ {
			sink += def.ChooseKernel(mat.Sparse, mat.Sparse, mat.DenseKind, 256, 256, 256, 0.05, 0.05+float64(i&7)*0.01, 0.3).Cost
		}
	})
	runtime.KeepAlive(sink)
	ms.set("costmodel.choose_ns", sec/calls*1e9)
	max, geo := regret(def, "default parameters, what atserve runs", classes, times, w)
	ms.set("costmodel.regret_max", max)
	ms.set("costmodel.regret_geomean", geo)
	calMax, _ := regret(core.CalibrateCostModel(), "core.CalibrateCostModel parameters", classes, times, w)
	ms.set("costmodel.regret_max_calibrated", calMax)
}

// --- scheduler -------------------------------------------------------------

func schedProbe(ms metricSet, cfg core.Config) error {
	rt := sched.RuntimeFor(cfg.Topology)
	const items = 20000
	queues, ok := sched.PlaceRoundRobin(items, cfg.Topology.Sockets, nil)
	if !ok {
		return fmt.Errorf("sched probe: no homes in topology %+v", cfg.Topology)
	}
	var runErr error
	sec := bestOf(3, 0, func() {
		if _, err := rt.RunIndexedCtx(context.Background(), queues, func(*sched.Team, int32) {}, sched.RunOpts{}); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		return fmt.Errorf("sched probe: %w", runErr)
	}
	ms.set("sched.dispatch_us", sec/items*1e6)

	// One task on one team that fans an empty row function out 2000 times:
	// the per-call cost of the intra-tile split.
	const fans = 2000
	one, _ := sched.PlaceRoundRobin(1, cfg.Topology.Sockets, nil)
	var perFan float64
	fan := func(team *sched.Team, _ int32) {
		t0 := time.Now()
		for i := 0; i < fans; i++ {
			team.ParallelRows(4096, func(lo, hi, worker int) {})
		}
		perFan = time.Since(t0).Seconds() / fans
	}
	best := math.Inf(1)
	for i := 0; i < 3; i++ {
		if _, err := rt.RunIndexedCtx(context.Background(), one, fan, sched.RunOpts{Grain: cfg.RowGrain}); err != nil {
			return fmt.Errorf("sched probe: %w", err)
		}
		best = math.Min(best, perFan)
	}
	ms.set("sched.parallel_rows_us", best*1e6)
	return nil
}

// --- serialization and mmio ------------------------------------------------

// probeMatrix generates a Table I stand-in for the fixed-input probes.
func probeMatrix(id string, seed int64, cfg core.Config) (*mat.COO, *core.ATMatrix, error) {
	coo, err := tableMatrix(id, seed, 0, benchScale)
	if err != nil {
		return nil, nil, err
	}
	m, _, err := core.Partition(coo, cfg)
	return coo, m, err
}

// serializeProbe measures the .atm codec and the tile-row frame codec on R1
// (mixed tiles) and R9 (one hypersparse tile), in memory, and the two
// upload parsers on R1.
func serializeProbe(ms metricSet, seed int64, cfg core.Config) error {
	var wAtm, rAtm, wFr, rFr, perNNZ []float64
	for _, id := range []string{"R1", "R9"} {
		coo, m, err := probeMatrix(id, seed, cfg)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		var opErr error
		note := func(err error) {
			if err != nil && opErr == nil {
				opErr = err
			}
		}
		sec := bestOf(3, 0, func() { buf.Reset(); _, err := m.WriteTo(&buf); note(err) })
		atm := append([]byte(nil), buf.Bytes()...)
		mb := float64(len(atm)) / 1e6
		wAtm = append(wAtm, mb/sec)
		perNNZ = append(perNNZ, float64(len(atm))/float64(m.NNZ()))
		sec = bestOf(3, 0, func() { _, err := core.ReadATMatrix(bytes.NewReader(atm)); note(err) })
		rAtm = append(rAtm, mb/sec)

		sec = bestOf(3, 0, func() { buf.Reset(); _, err := m.WriteTileRowFrames(&buf); note(err) })
		frames := append([]byte(nil), buf.Bytes()...)
		mb = float64(len(frames)) / 1e6
		wFr = append(wFr, mb/sec)
		sec = bestOf(3, 0, func() {
			note(core.ReadTileRowFrames(bytes.NewReader(frames), nil, func(*core.ATMatrix) error { return nil }))
		})
		rFr = append(rFr, mb/sec)

		if id == "R1" {
			buf.Reset()
			note(mmio.WriteBinary(&buf, coo))
			bin := append([]byte(nil), buf.Bytes()...)
			sec = bestOf(3, 0, func() { _, err := mmio.ReadBinary(bytes.NewReader(bin)); note(err) })
			ms.set("mmio.read_binary_mbs", float64(len(bin))/1e6/sec)
			buf.Reset()
			note(mmio.WriteMatrixMarket(&buf, coo))
			mtx := buf.Bytes()
			sec = bestOf(3, 0, func() { _, err := mmio.ReadMatrixMarket(bytes.NewReader(mtx)); note(err) })
			ms.set("mmio.read_mtx_mbs", float64(len(mtx))/1e6/sec)
		}
		if opErr != nil {
			return fmt.Errorf("serialize probe on %s: %w", id, opErr)
		}
	}
	ms.set("core.write_atm_mbs", geomean(wAtm))
	ms.set("core.read_atm_mbs", geomean(rAtm))
	ms.set("core.frames_write_mbs", geomean(wFr))
	ms.set("core.frames_read_mbs", geomean(rFr))
	ms.set("core.atm_bytes_per_nnz", geomean(perNNZ))
	return nil
}
