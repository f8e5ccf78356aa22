package core

import (
	"math/rand"
	"testing"
	"time"

	"atmatrix/internal/kernels"
	"atmatrix/internal/mat"
)

// TestSpGEMMAutoDispatch proves the cost model routes hypersparse×
// hypersparse tile contributions to the outer-product merge kernel and
// everything denser to Gustavson, with the kernel-choice counts surfaced
// in MultStats.
func TestSpGEMMAutoDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	cfg := testConfig()
	n := 256

	// Hypersparse: ~0.5 stored elements per row, far below the crossover
	// (expected partial-product runs per output row = ρA·k ≈ 0.5).
	hyperA := mat.RandomCOO(rng, n, n, n/2)
	hyperB := mat.RandomCOO(rng, n, n, n/2)
	stats := multAndCheck(t, cfg, DefaultMultOptions(), hyperA, hyperB, "hypersparse auto")
	if stats.OuterKernelCalls == 0 {
		t.Fatalf("hypersparse workload selected no outer-product kernels: %+v", statsCounts(stats))
	}
	if stats.GustavsonKernelCalls > stats.OuterKernelCalls {
		t.Fatalf("hypersparse workload mostly on Gustavson: %+v", statsCounts(stats))
	}

	// Mid-sparse: ρ = 0.01 → ~2.6 runs per output row, above the
	// crossover, while the estimated result density (~0.025) stays below
	// the write threshold so the target — and with it the SpGEMM choice —
	// remains sparse. The merge kernel must not be selected.
	midA := mat.RandomCOO(rng, n, n, n*n/100)
	midB := mat.RandomCOO(rng, n, n, n*n/100)
	stats = multAndCheck(t, cfg, DefaultMultOptions(), midA, midB, "mid-sparse auto")
	if stats.OuterKernelCalls != 0 {
		t.Fatalf("mid-sparse workload selected outer-product kernels: %+v", statsCounts(stats))
	}
	if stats.GustavsonKernelCalls == 0 {
		t.Fatal("mid-sparse workload recorded no Gustavson calls; expected sparse×sparse contributions")
	}
}

func statsCounts(s *MultStats) map[string]int64 {
	return map[string]int64{
		"outer":     s.OuterKernelCalls,
		"gustavson": s.GustavsonKernelCalls,
	}
}

// TestSpGEMMChoiceWithinBound treats the cost model's claim as a property:
// on the two sparse operand classes of the kernel benchmarks
// (bench_kernels_test.go: hyper = 1024² at ρ 0.001, sparse = 256² at
// ρ 0.05, generator seed 9) the algorithm the auto policy picks must take
// at most 1.25× the time of the better of the two, each timed from the
// first partial product to final rows.
func TestSpGEMMChoiceWithinBound(t *testing.T) {
	cost := DefaultConfig().Cost
	for _, class := range []struct {
		name string
		n    int
		rho  float64
	}{{"hyper", 1024, 0.001}, {"sparse", 256, 0.05}} {
		rng := rand.New(rand.NewSource(9))
		n := class.n
		nnz := int(class.rho * float64(n) * float64(n))
		as := mat.RandomCOO(rng, n, n, nnz).ToCSR()
		bs := mat.RandomCOO(rng, n, n, nnz).ToCSR()
		aTile := &Tile{Rows: n, Cols: n, Kind: mat.Sparse, Sp: as, NNZ: as.NNZ()}
		ct := &contribution{aTile: aTile, mRows: n, k: n, nCols: n}
		outer := cost.PreferOuter(n, n, n, runDensity(ct), bs.Density())

		scr := kernels.NewScratch()
		a, b := kernels.FullCSR(as), kernels.FullCSR(bs)
		best := map[bool]time.Duration{}
		for rep := 0; rep < 10; rep++ { // interleaved best-of-9 after a warm-up: robust on a shared host
			for _, alg := range []bool{false, true} {
				t0 := time.Now()
				acc := scr.Acc(n, n)
				if alg {
					kernels.OuterSpSp(acc, 0, 0, a, b, scr.Merge())
				} else {
					kernels.SpSpSp(acc, 0, 0, a, b, scr.SPA())
				}
				if d := time.Since(t0); rep > 0 && (best[alg] == 0 || d < best[alg]) {
					best[alg] = d
				}
			}
		}
		chosen, other := best[outer], best[!outer]
		t.Logf("%s: outer=%v chosen %v, alternative %v", class.name, outer, chosen, other)
		if float64(chosen) > 1.25*float64(other) {
			t.Errorf("%s class: auto policy picks outer=%v at %v, %.2f× the alternative's %v",
				class.name, outer, chosen, float64(chosen)/float64(other), other)
		}
	}
}
