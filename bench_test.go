package atmatrix

// One benchmark per table/figure of the paper's evaluation (§IV), plus
// kernel microbenchmarks and the ablation benches called out in DESIGN.md.
// The figure benches run the exp harness at a reduced scale so that
// `go test -bench=.` completes in minutes; the atbench CLI runs the same
// code at the recorded scale of EXPERIMENTS.md.

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"atmatrix/internal/core"
	"atmatrix/internal/density"
	"atmatrix/internal/exp"
	"atmatrix/internal/gen"
	"atmatrix/internal/kernels"
	"atmatrix/internal/mat"
	"atmatrix/internal/numa"
	"atmatrix/internal/rmat"
)

// benchScale keeps the per-iteration work of the figure benches small.
const benchScale = 1.0 / 64

func benchOptions() exp.Options {
	o := exp.DefaultOptions()
	o.Scale = benchScale
	o.FlopCap = 2e9
	o.Topology = numa.Detect()
	return o
}

// --- Table I -----------------------------------------------------------

func BenchmarkTabI_Generate(b *testing.B) {
	for _, id := range []string{"R1", "R3", "R7", "G1", "G9"} {
		id := id
		b.Run(id, func(b *testing.B) {
			spec, err := gen.Lookup(id)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := spec.Generate(benchScale); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Shared fixtures ----------------------------------------------------

type fixture struct {
	coo *mat.COO
	csr *mat.CSR
	am  *core.ATMatrix
	cfg core.Config
}

var (
	fixtures   = map[string]*fixture{}
	fixtureMu  sync.Mutex
	fixtureCfg = benchOptions().Config()
)

func getFixture(b *testing.B, id string) *fixture {
	b.Helper()
	fixtureMu.Lock()
	defer fixtureMu.Unlock()
	if f, ok := fixtures[id]; ok {
		return f
	}
	spec, err := gen.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	coo, err := spec.Generate(benchScale)
	if err != nil {
		b.Fatal(err)
	}
	am, _, err := core.Partition(coo, fixtureCfg)
	if err != nil {
		b.Fatal(err)
	}
	f := &fixture{coo: coo, csr: coo.ToCSR(), am: am, cfg: fixtureCfg}
	fixtures[id] = f
	return f
}

// --- Fig. 2 / Fig. 7: partitioning --------------------------------------

func BenchmarkFig2_Partition(b *testing.B) {
	for _, id := range []string{"R3", "R7", "G5"} {
		f := getFixture(b, id)
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Partition(f.coo, f.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig7_Partitioning(b *testing.B) {
	// The full Fig. 7 pipeline: partition + one spspsp multiplication per
	// iteration, per matrix.
	for _, id := range []string{"R1", "R3", "R8"} {
		f := getFixture(b, id)
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Partition(f.coo, f.cfg); err != nil {
					b.Fatal(err)
				}
				if _, err := core.MulSpSpSp(f.csr, f.csr, f.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig. 5: water level -------------------------------------------------

func BenchmarkFig5_WaterLevel(b *testing.B) {
	f := getFixture(b, "R3")
	dm := f.am.DensityMap()
	est := density.EstimateProduct(dm, dm)
	limit := core.EstimatedBytesAt(est, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.WaterLevel(est, limit)
	}
}

// --- Fig. 8: C = A·A approaches ------------------------------------------

func BenchmarkFig8_SquareMult(b *testing.B) {
	for _, id := range []string{"R1", "R3", "G1", "G9"} {
		f := getFixture(b, id)
		b.Run(id+"/spspsp", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.MulSpSpSp(f.csr, f.csr, f.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(id+"/spspd", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.MulSpSpD(f.csr, f.csr, f.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(id+"/atmult", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Multiply(f.am, f.am, f.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRepeatedMultiply runs ATMULT many times over the same operands —
// the serving-loop pattern (iterative algorithms, repeated queries) where
// per-call allocation churn dominates. Steady-state allocs/op is the number
// the persistent worker runtime and per-worker scratch arenas drive toward
// zero; wall time must not regress versus BenchmarkFig8_SquareMult.
func BenchmarkRepeatedMultiply(b *testing.B) {
	for _, id := range []string{"R3", "G1"} {
		f := getFixture(b, id)
		b.Run(id, func(b *testing.B) {
			// Warm up once so lazily-grown buffers don't count.
			if _, _, err := core.Multiply(f.am, f.am, f.cfg); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Multiply(f.am, f.am, f.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig. 9: mixed sparse-dense -------------------------------------------

func BenchmarkFig9_MixedMult(b *testing.B) {
	f := getFixture(b, "R1")
	k := f.coo.Rows
	n := 3 * int(f.csr.NNZ()) / k
	if n < 1 {
		n = 1
	}
	rng := rand.New(rand.NewSource(1))
	full := mat.RandomDense(rng, k, n)
	fullAT := core.FromDense(full, f.cfg.BAtomic)
	b.Run("spdd", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.MulSpDD(f.csr, full, f.cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("atmult", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := core.Multiply(f.am, fullAT, f.cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	fullT := mat.RandomDense(rng, n, k)
	fullTAT := core.FromDense(fullT, f.cfg.BAtomic)
	b.Run("dspd", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.MulDSpD(fullT, f.csr, f.cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("atmult-denseleft", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := core.Multiply(fullTAT, f.am, f.cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Fig. 10: ablation steps ----------------------------------------------

func BenchmarkFig10_Ablation(b *testing.B) {
	f := getFixture(b, "R3")
	for _, step := range core.AllSteps() {
		step := step
		b.Run(step.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.RunStep(f.coo, f.cfg, step); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Kernel microbenchmarks: see bench_kernels_test.go ------------------------

// kernelOperands builds the mid-sparse operand pair the ablation benches
// below share with the (now separate) kernel microbenchmark suite.
func kernelOperands(rho float64) (*mat.Dense, *mat.Dense, *mat.CSR, *mat.CSR) {
	rng := rand.New(rand.NewSource(9))
	const n = 256
	ac := mat.RandomCOO(rng, n, n, int(rho*n*n))
	bc := mat.RandomCOO(rng, n, n, int(rho*n*n))
	return ac.ToDense(), bc.ToDense(), ac.ToCSR(), bc.ToCSR()
}

// --- DESIGN.md ablations ------------------------------------------------------

// BenchmarkAblation_Accumulator compares the SPA-based sparse accumulation
// against a naive map-based accumulator, justifying the SPA design choice.
func BenchmarkAblation_Accumulator(b *testing.B) {
	_, _, as, bs := kernelOperands(0.05)
	b.Run("spa", func(b *testing.B) {
		spa := kernels.NewSPA(bs.Cols)
		for i := 0; i < b.N; i++ {
			acc := kernels.NewSpAcc(as.Rows, bs.Cols)
			kernels.SpSpSp(acc, 0, 0, kernels.FullCSR(as), kernels.FullCSR(bs), spa)
			acc.ToCSR()
		}
	})
	b.Run("map", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mapGustavson(as, bs)
		}
	})
}

// mapGustavson is the strawman: Gustavson's algorithm with a Go map as the
// row accumulator.
func mapGustavson(a, bm *mat.CSR) *mat.CSR {
	out := mat.NewCSR(a.Rows, bm.Cols)
	var cols []int32
	var vals []float64
	for i := 0; i < a.Rows; i++ {
		row := map[int32]float64{}
		ac, av := a.Row(i)
		for p, k := range ac {
			bc, bv := bm.Row(int(k))
			for q, j := range bc {
				row[j] += av[p] * bv[q]
			}
		}
		keys := make([]int32, 0, len(row))
		for k := range row {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(x, y int) bool { return keys[x] < keys[y] })
		for _, k := range keys {
			cols = append(cols, k)
			vals = append(vals, row[k])
		}
		out.RowPtr[i+1] = int64(len(cols))
	}
	out.ColIdx = cols
	out.Val = vals
	return out
}

// BenchmarkAblation_ColSearch compares the binary column-id search used
// for referenced windows against a linear scan.
func BenchmarkAblation_ColSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	a := mat.RandomCOO(rng, 512, 4096, 200_000).ToCSR()
	b.Run("binary", func(b *testing.B) {
		var sink int64
		for i := 0; i < b.N; i++ {
			for r := 0; r < a.Rows; r++ {
				lo, hi := a.ColSpan(r, 1024, 1536)
				sink += hi - lo
			}
		}
		_ = sink
	})
	b.Run("linear", func(b *testing.B) {
		var sink int64
		for i := 0; i < b.N; i++ {
			for r := 0; r < a.Rows; r++ {
				lo, hi := a.RowRange(r)
				for p := lo; p < hi; p++ {
					if c := a.ColIdx[p]; c >= 1024 && c < 1536 {
						sink++
					}
				}
			}
		}
		_ = sink
	})
}

// BenchmarkAblation_Runtime compares the persistent per-worker scratch
// arenas (the default) against throwaway scratch per task
// (EphemeralWorkers), both on the same persistent worker teams, on the
// serving-loop workload of BenchmarkRepeatedMultiply. The persistent side
// should win on both allocs/op and wall time.
func BenchmarkAblation_Runtime(b *testing.B) {
	f := getFixture(b, "R3")
	for _, ephemeral := range []bool{false, true} {
		name := "persistent"
		if ephemeral {
			name = "ephemeral"
		}
		cfg := f.cfg
		cfg.EphemeralWorkers = ephemeral
		b.Run(name, func(b *testing.B) {
			if _, _, err := core.Multiply(f.am, f.am, cfg); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Multiply(f.am, f.am, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDensityEstimator measures the SpMacho product estimator,
// whose cost the paper reports as negligible (<0.1% of ATMULT).
func BenchmarkDensityEstimator(b *testing.B) {
	f := getFixture(b, "R3")
	dm := f.am.DensityMap()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		density.EstimateProduct(dm, dm)
	}
}

// BenchmarkRMATGenerate measures the RMAT workload generator.
func BenchmarkRMATGenerate(b *testing.B) {
	p, _ := rmat.PaperParams(5)
	for i := 0; i < b.N; i++ {
		if _, err := rmat.Generate(4096, 100_000, p, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCalibrate measures the cost-model calibration hook itself.
func BenchmarkCalibrate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		core.CalibrateCostModel()
	}
}
