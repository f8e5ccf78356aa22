package atmatrix

// Per-kernel microbenchmarks: one BenchmarkKernel_<name> per tile kernel,
// each across the representative tile classes of the partitioner
// (hypersparse / sparse operands, fully dense operands). They are the
// repo's kernel perf trajectory: `make bench-kernels` runs exactly this
// set with -benchmem and writes BENCH_kernels.json (name, ns/op, B/op,
// allocs/op) via cmd/benchjson, and the CI bench-smoke job runs one short
// iteration of each. All targets and scratch state are reused across
// iterations, so allocs/op reports the kernels' steady state — the
// hotpath-alloc fence demands 0.

import (
	"math/rand"
	"testing"

	"atmatrix/internal/kernels"
	"atmatrix/internal/mat"
)

// kernelClass is one operand tile class of the kernel microbenches.
type kernelClass struct {
	name string
	n    int     // square tile side
	rho  float64 // operand density; 1 → fully populated
}

// kernelClasses are the operating points: hypersparse tiles (≈1 stored
// element per row, the class the outer-product kernel targets), the
// mid-sparse regime below ρ0^R, and fully dense tiles.
var kernelClasses = []kernelClass{
	{"hyper", 1024, 0.001},
	{"sparse", 256, 0.05},
	{"dense", 256, 1.0},
}

func classByName(b *testing.B, name string) kernelClass {
	for _, kc := range kernelClasses {
		if kc.name == name {
			return kc
		}
	}
	b.Fatalf("unknown kernel class %q", name)
	return kernelClass{}
}

// operands builds the class's operand pair in both physical forms.
func (kc kernelClass) operands() (ad, bd *mat.Dense, as, bs *mat.CSR) {
	rng := rand.New(rand.NewSource(9))
	if kc.rho >= 1 {
		ad = mat.RandomDense(rng, kc.n, kc.n)
		bd = mat.RandomDense(rng, kc.n, kc.n)
		return ad, bd, ad.ToCSR(), bd.ToCSR()
	}
	nnz := int(kc.rho * float64(kc.n) * float64(kc.n))
	ac := mat.RandomCOO(rng, kc.n, kc.n, nnz)
	bc := mat.RandomCOO(rng, kc.n, kc.n, nnz)
	return ac.ToDense(), bc.ToDense(), ac.ToCSR(), bc.ToCSR()
}

// benchDenseTarget runs one dense-target kernel across the given classes,
// reusing one accumulation target across iterations.
func benchDenseTarget(b *testing.B, classes []string, run func(c *mat.Dense, ad, bd *mat.Dense, as, bs *mat.CSR)) {
	for _, name := range classes {
		kc := classByName(b, name)
		b.Run(name, func(b *testing.B) {
			ad, bd, as, bs := kc.operands()
			c := mat.NewDense(kc.n, kc.n)
			run(c, ad, bd, as, bs) // warm up
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(c, ad, bd, as, bs)
			}
		})
	}
}

// benchSparseTarget runs one sparse-target kernel across the given
// classes. The accumulator, SPA and merge scratch come from one reused
// worker arena, exactly as in ATMULT's steady state.
func benchSparseTarget(b *testing.B, classes []string, run func(scr *kernels.Scratch, acc *kernels.SpAcc, ad, bd *mat.Dense, as, bs *mat.CSR)) {
	for _, name := range classes {
		kc := classByName(b, name)
		b.Run(name, func(b *testing.B) {
			ad, bd, as, bs := kc.operands()
			scr := kernels.NewScratch()
			// Warm up: grow the arena to its steady-state high-water mark so
			// allocs/op reports the kernels' steady state, not the one-time
			// growth of a cold arena.
			run(scr, scr.Acc(kc.n, kc.n), ad, bd, as, bs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				acc := scr.Acc(kc.n, kc.n)
				run(scr, acc, ad, bd, as, bs)
			}
		})
	}
}

func BenchmarkKernel_DDD(b *testing.B) {
	// The sparse class stores ~95% zeros in dense form: the zero-skip path.
	benchDenseTarget(b, []string{"dense", "sparse"}, func(c, ad, bd *mat.Dense, as, bs *mat.CSR) {
		kernels.DDD(c, ad, bd)
	})
}

func BenchmarkKernel_SpDD(b *testing.B) {
	benchDenseTarget(b, []string{"dense", "sparse", "hyper"}, func(c, ad, bd *mat.Dense, as, bs *mat.CSR) {
		kernels.SpDD(c, kernels.FullCSR(as), bd)
	})
}

// BenchmarkKernel_DSpD: every class is taller than DSpD's 128-row cut. The
// calls share one worker arena, as ATMULT's do, which holds the column form
// of B when the dot walk is taken (the dense class).
func BenchmarkKernel_DSpD(b *testing.B) {
	scr := kernels.NewScratch()
	benchDenseTarget(b, []string{"dense", "sparse", "hyper"}, func(c, ad, bd *mat.Dense, as, bs *mat.CSR) {
		kernels.DSpDScratch(c, ad, kernels.FullCSR(bs), scr)
	})
}

func BenchmarkKernel_SpSpD(b *testing.B) {
	benchDenseTarget(b, []string{"sparse", "hyper"}, func(c, ad, bd *mat.Dense, as, bs *mat.CSR) {
		kernels.SpSpD(c, kernels.FullCSR(as), kernels.FullCSR(bs))
	})
	// cols: the sparse class through SpSpDCols, A held as a column view
	// built once outside the loop, as ATMULT builds one per row band and
	// multiplication.
	kc := classByName(b, "sparse")
	b.Run("cols", func(b *testing.B) {
		_, _, as, bs := kc.operands()
		v := kernels.NewColView(as, 0, kc.n)
		c := mat.NewDense(kc.n, kc.n)
		kernels.SpSpDCols(c, v, 0, 0, kernels.FullCSR(bs)) // warm up
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			kernels.SpSpDCols(c, v, 0, 0, kernels.FullCSR(bs))
		}
	})
}

func BenchmarkKernel_SpSpSp(b *testing.B) {
	benchSparseTarget(b, []string{"sparse", "hyper"}, func(scr *kernels.Scratch, acc *kernels.SpAcc, ad, bd *mat.Dense, as, bs *mat.CSR) {
		kernels.SpSpSp(acc, 0, 0, kernels.FullCSR(as), kernels.FullCSR(bs), scr.SPA())
	})
}

func BenchmarkKernel_OuterSpSp(b *testing.B) {
	// Same operand classes as SpSpSp: the cost model routes hypersparse
	// tiles here, so the hyper row of this bench vs. SpSpSp/hyper is the
	// crossover evidence.
	benchSparseTarget(b, []string{"sparse", "hyper"}, func(scr *kernels.Scratch, acc *kernels.SpAcc, ad, bd *mat.Dense, as, bs *mat.CSR) {
		kernels.OuterSpSp(acc, 0, 0, kernels.FullCSR(as), kernels.FullCSR(bs), scr.Merge())
	})
}

func BenchmarkKernel_SpDSp(b *testing.B) {
	benchSparseTarget(b, []string{"sparse"}, func(scr *kernels.Scratch, acc *kernels.SpAcc, ad, bd *mat.Dense, as, bs *mat.CSR) {
		kernels.SpDSp(acc, 0, 0, kernels.FullCSR(as), bd, scr.SPA())
	})
}

func BenchmarkKernel_DSpSp(b *testing.B) {
	benchSparseTarget(b, []string{"sparse"}, func(scr *kernels.Scratch, acc *kernels.SpAcc, ad, bd *mat.Dense, as, bs *mat.CSR) {
		kernels.DSpSp(acc, 0, 0, ad, kernels.FullCSR(bs), scr.SPA())
	})
}

func BenchmarkKernel_DDSp(b *testing.B) {
	// Dense operands at 5% population into a sparse target — the corner of
	// the eightfold model the optimizer essentially never picks.
	benchSparseTarget(b, []string{"sparse"}, func(scr *kernels.Scratch, acc *kernels.SpAcc, ad, bd *mat.Dense, as, bs *mat.CSR) {
		kernels.DDSp(acc, 0, 0, ad, bd, scr.SPA())
	})
}

// finalizeSink keeps the assembled tile alive so the finalize is not
// optimized away.
var finalizeSink *mat.CSR

// BenchmarkKernel_Finalize times a sparse target tile from first
// contribution to CSR — one row pass, then assembly — which is what one
// sparse result tile costs ATMULT. hyper and sparse receive a single
// Gustavson contribution (every row scattered and emitted once); multirun
// receives eight overlapping contributions per row on the sparse class, the
// shape of a result tile fed by many operand tile pairs, where seven of
// them go through the second SPA and are folded into the row total.
// allocs/op is the escaping result (CSR header, RowPtr, ColIdx, Val),
// nothing else.
func BenchmarkKernel_Finalize(b *testing.B) {
	for _, fc := range []struct {
		name, class string
		contribs    int
	}{{"hyper", "hyper", 1}, {"sparse", "sparse", 1}, {"multirun", "sparse", 8}} {
		kc := classByName(b, fc.class)
		b.Run(fc.name, func(b *testing.B) {
			_, _, as, bs := kc.operands()
			scr := kernels.NewScratch()
			terms := make([]kernels.Term, fc.contribs)
			for c := range terms {
				x, y := as, bs
				if c%2 == 1 {
					x, y = bs, as // a different product: rows overlap only in part
				}
				terms[c] = kernels.Term{A: kernels.FullCSR(x), B: kernels.FullCSR(y)}
			}
			run := func() {
				acc := scr.Acc(kc.n, kc.n)
				acc.Split(1)
				acc.Pass(0, 0, kc.n, terms, scr)
				finalizeSink = acc.ToCSR()
			}
			run() // warm up the arena
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}
