package core

import (
	"bytes"
	"math/rand"
	"testing"

	"atmatrix/internal/density"
	"atmatrix/internal/gen"
	"atmatrix/internal/mat"
	"atmatrix/internal/mmio"
	"atmatrix/internal/rmat"
)

// TestEndToEndFileToResult exercises the full pipeline across modules:
// MatrixMarket I/O → staging → partitioning → ATMULT → export.
func TestEndToEndFileToResult(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	cfg := testConfig()
	src, err := genHeterogeneous(rng, 128)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mmio.WriteMatrixMarket(&buf, src); err != nil {
		t.Fatal(err)
	}
	loaded, err := mmio.ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	am, _, err := Partition(loaded, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := Multiply(am, am, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := mat.MulReference(src.ToDense(), src.ToDense())
	if !c.ToDense().EqualApprox(want, tol) {
		t.Fatal("end-to-end result mismatch")
	}
	// Export the result and reload it.
	buf.Reset()
	if err := mmio.WriteBinary(&buf, c.ToCOO()); err != nil {
		t.Fatal(err)
	}
	back, err := mmio.ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != c.NNZ() {
		t.Fatal("exported result lost entries")
	}
}

// TestTableIWorkloadsMultiplyCorrectly runs every Table I generator class
// at a tiny scale through the full partition+multiply pipeline.
func TestTableIWorkloadsMultiplyCorrectly(t *testing.T) {
	cfg := testConfig()
	for _, id := range []string{"R1", "R2", "R3", "R7", "R8", "G1", "G9"} {
		spec, err := gen.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		// Scale each matrix to roughly 400 rows so the dense reference
		// check stays cheap.
		a, err := spec.Generate(400.0 / float64(spec.Dim))
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if a.Rows > 500 {
			t.Fatalf("%s: tiny scale produced %d rows; test budget exceeded", id, a.Rows)
		}
		am, _, err := Partition(a, cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if err := am.Validate(); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		c, _, err := Multiply(am, am, cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		want := mat.MulReference(a.ToDense(), a.ToDense())
		if !c.ToDense().EqualApprox(want, tol) {
			t.Fatalf("%s: ATMULT differs from reference", id)
		}
	}
}

// TestAssociativity: (A·B)·C == A·(B·C) through ATMULT, with the
// intermediate results repartitioned — exercising result matrices as
// operands in both positions.
func TestAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	cfg := testConfig()
	a := mat.RandomCOO(rng, 48, 64, 700)
	b := mat.RandomCOO(rng, 64, 56, 800)
	c := mat.RandomCOO(rng, 56, 40, 600)
	am, _, _ := Partition(a, cfg)
	bm, _, _ := Partition(b, cfg)
	cm, _, _ := Partition(c, cfg)

	ab, _, err := Multiply(am, bm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	abR, _, err := ab.Repartition(cfg)
	if err != nil {
		t.Fatal(err)
	}
	abc1, _, err := Multiply(abR, cm, cfg)
	if err != nil {
		t.Fatal(err)
	}

	bc, _, err := Multiply(bm, cm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	abc2, _, err := Multiply(am, bc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !abc1.ToDense().EqualApprox(abc2.ToDense(), 1e-8) {
		t.Fatal("(A·B)·C != A·(B·C)")
	}
}

// TestSelfTransposeSymmetry: D = A·Aᵀ must be symmetric.
func TestSelfTransposeSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	cfg := testConfig()
	a := mat.RandomCOO(rng, 80, 50, 900)
	am, _, err := Partition(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := Multiply(am, am.Transpose(cfg), cfg)
	if err != nil {
		t.Fatal(err)
	}
	dd := d.ToDense()
	for r := 0; r < dd.Rows; r++ {
		for c := r + 1; c < dd.Cols; c++ {
			x, y := dd.At(r, c), dd.At(c, r)
			if diff := x - y; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("A·Aᵀ not symmetric at (%d,%d): %g vs %g", r, c, x, y)
			}
		}
	}
}

// TestDensityMapAtAggregation checks the coarse map against a directly
// computed one.
func TestDensityMapAtAggregation(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	cfg := testConfig()
	src, err := genHeterogeneous(rng, 128)
	if err != nil {
		t.Fatal(err)
	}
	am, _, err := Partition(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	coarse := am.DensityMapAt(4 * cfg.BAtomic)
	direct := density.FromCOO(src, 4*cfg.BAtomic)
	if d := density.MaxAbsDiff(coarse, direct); d > 1e-12 {
		t.Fatalf("aggregated map deviates by %g from direct computation", d)
	}
	// Requesting the atomic granularity returns the cached fine map.
	if am.DensityMapAt(cfg.BAtomic) != am.DensityMap() {
		t.Fatal("atomic-granularity request should return the cached map")
	}
	// Below-atomic requests also fall back to the fine map.
	if am.DensityMapAt(cfg.BAtomic/2) != am.DensityMap() {
		t.Fatal("sub-atomic request should return the fine map")
	}
}

// TestRMATWorkloadThroughPipeline: RMAT skew survives partitioning and the
// estimator — the skewed quadrant should be denser in the result estimate
// as well (the Fig. 8 skew-series mechanism).
func TestRMATWorkloadThroughPipeline(t *testing.T) {
	cfg := testConfig()
	p, err := rmat.PaperParams(9) // strongest skew
	if err != nil {
		t.Fatal(err)
	}
	a, err := rmat.Generate(256, 8000, p, 5)
	if err != nil {
		t.Fatal(err)
	}
	am, _, err := Partition(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dm := am.DensityMap()
	est := density.EstimateProduct(dm, dm)
	ulDensity := est.At(0, 0)
	lrDensity := est.At(est.BR-1, est.BC-1)
	if ulDensity <= lrDensity {
		t.Fatalf("estimate lost the skew: UL %g vs LR %g", ulDensity, lrDensity)
	}
	c, _, err := Multiply(am, am, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := mat.MulReference(a.ToDense(), a.ToDense())
	if !c.ToDense().EqualApprox(want, tol) {
		t.Fatal("skewed RMAT multiplication mismatch")
	}
}

// TestMemoryLimitSweep: tightening the limit must never increase the
// result footprint, and the numerical result must stay identical.
func TestMemoryLimitSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	cfg := testConfig()
	src, err := genHeterogeneous(rng, 128)
	if err != nil {
		t.Fatal(err)
	}
	am, _, err := Partition(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	unlimited, _, err := Multiply(am, am, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := unlimited.ToDense()
	prevBytes := unlimited.Bytes() * 2
	for _, frac := range []float64{1.0, 0.5, 0.25, 0.1} {
		lim := cfg
		lim.MemLimit = int64(frac * float64(unlimited.Bytes()))
		c, _, err := Multiply(am, am, lim)
		if err != nil {
			t.Fatal(err)
		}
		if c.Bytes() > prevBytes {
			t.Fatalf("frac %g: bytes grew from %d to %d under a tighter limit", frac, prevBytes, c.Bytes())
		}
		prevBytes = c.Bytes()
		if !c.ToDense().EqualApprox(ref, tol) {
			t.Fatalf("frac %g: memory limit changed the numbers", frac)
		}
	}
}
