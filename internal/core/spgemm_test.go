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

// TestSpGEMMForcedPolicies: the MultOptions override pins every
// sparse×sparse contribution to the requested algorithm, in both
// directions, with identical results.
func TestSpGEMMForcedPolicies(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	cfg := testConfig()
	// ρ = 0.01 keeps the product below the write threshold: the result
	// tiles stay sparse, so the policy actually has kernels to pin.
	n := 192
	a := mat.RandomCOO(rng, n, n, n*n/100)
	b := mat.RandomCOO(rng, n, n, n*n/100)

	opts := DefaultMultOptions()
	opts.SpGEMM = SpGEMMOuter
	stats := multAndCheck(t, cfg, opts, a, b, "forced outer")
	if stats.OuterKernelCalls == 0 || stats.GustavsonKernelCalls != 0 {
		t.Fatalf("SpGEMMOuter not honored: %+v", statsCounts(stats))
	}

	opts.SpGEMM = SpGEMMGustavson
	stats = multAndCheck(t, cfg, opts, a, b, "forced gustavson")
	if stats.GustavsonKernelCalls == 0 || stats.OuterKernelCalls != 0 {
		t.Fatalf("SpGEMMGustavson not honored: %+v", statsCounts(stats))
	}
}

// TestSpGEMMOuterMatchesGustavsonEndToEnd runs the same randomized
// multiplications under both forced policies and cross-checks the
// assembled results — the end-to-end analogue of the kernel-level
// property test.
func TestSpGEMMOuterMatchesGustavsonEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	cfg := testConfig()
	for trial := 0; trial < 6; trial++ {
		m := 16 + rng.Intn(150)
		k := 16 + rng.Intn(150)
		n := 16 + rng.Intn(150)
		a := mat.RandomCOO(rng, m, k, rng.Intn(m*k/8+1))
		b := mat.RandomCOO(rng, k, n, rng.Intn(k*n/8+1))
		outer := DefaultMultOptions()
		outer.SpGEMM = SpGEMMOuter
		gust := DefaultMultOptions()
		gust.SpGEMM = SpGEMMGustavson
		co := multAndCheckResult(t, cfg, outer, a, b, "e2e outer")
		cg := multAndCheckResult(t, cfg, gust, a, b, "e2e gustavson")
		if !co.ToDense().EqualApprox(cg.ToDense(), tol) {
			t.Fatalf("trial %d: forced-outer result differs from forced-gustavson", trial)
		}
	}
}

// multAndCheckResult is multAndCheck returning the product matrix.
func multAndCheckResult(t *testing.T, cfg Config, opts MultOptions, a, b *mat.COO, label string) *ATMatrix {
	t.Helper()
	am, _, err := Partition(a, cfg)
	if err != nil {
		t.Fatalf("%s: partition A: %v", label, err)
	}
	bm, _, err := Partition(b, cfg)
	if err != nil {
		t.Fatalf("%s: partition B: %v", label, err)
	}
	cm, _, err := MultiplyOpt(am, bm, cfg, opts)
	if err != nil {
		t.Fatalf("%s: multiply: %v", label, err)
	}
	want := mat.MulReference(a.ToDense(), b.ToDense())
	if !cm.ToDense().EqualApprox(want, tol) {
		t.Fatalf("%s: result differs from reference", label)
	}
	return cm
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
// first partial product to final rows (kernel + combine).
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
				acc.CombineRows(0, n, scr.SPA())
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
