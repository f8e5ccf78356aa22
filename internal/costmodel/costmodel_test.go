package costmodel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"atmatrix/internal/mat"
)

func TestDefaultThresholds(t *testing.T) {
	p := Default()
	if got := p.RhoRead(); got != 0.25 {
		t.Fatalf("RhoRead = %g, want 0.25 (the paper's test-system value)", got)
	}
	if got := p.RhoWrite(); got != 0.0625 {
		t.Fatalf("RhoWrite = %g, want 0.0625", got)
	}
	if p.RhoWrite() >= p.RhoRead() {
		t.Fatal("write threshold must be much lower than read threshold (§III-C)")
	}
	// The mixed-kernel turnaround sits below ρ0^R: this gap is what makes
	// the dynamic optimizer convert near-threshold sparse tiles when the
	// other operand is dense (§IV-D, matrix R1).
	if got := p.RhoReadMixed(); got != 0.2 {
		t.Fatalf("RhoReadMixed = %g, want 0.2", got)
	}
	if p.RhoReadMixed() >= p.RhoRead() {
		t.Fatal("mixed turnaround must be below ρ0^R")
	}
}

// TestConversionZone: a sparse tile with density between RhoReadMixed and
// RhoRead multiplied by a dense operand should be converted to dense.
func TestConversionZone(t *testing.T) {
	p := Default()
	n := 512
	plan := p.ChooseKernel(mat.Sparse, mat.DenseKind, mat.DenseKind, n, n, n, 0.23, 1, 0.95)
	if !plan.ConvA {
		t.Fatalf("ρ=0.23 (conversion zone) not converted: %+v", plan)
	}
	plan = p.ChooseKernel(mat.Sparse, mat.DenseKind, mat.DenseKind, n, n, n, 0.1, 1, 0.95)
	if plan.ConvA {
		t.Fatalf("ρ=0.1 (below mixed turnaround) converted: %+v", plan)
	}
}

// TestReadTurnaround: around ρ0^R the cheaper A representation flips from
// sparse (below) to dense (above), with B and C dense.
func TestReadTurnaround(t *testing.T) {
	p := Default()
	m, k, n := 512, 512, 512
	lo := p.Mult(mat.Sparse, mat.DenseKind, mat.DenseKind, m, k, n, 0.1, 1, 1)
	loD := p.Mult(mat.DenseKind, mat.DenseKind, mat.DenseKind, m, k, n, 0.1, 1, 1)
	if lo >= loD {
		t.Fatalf("at ρ=0.1 sparse A should win: sp=%g d=%g", lo, loD)
	}
	hi := p.Mult(mat.Sparse, mat.DenseKind, mat.DenseKind, m, k, n, 0.6, 1, 1)
	hiD := p.Mult(mat.DenseKind, mat.DenseKind, mat.DenseKind, m, k, n, 0.6, 1, 1)
	if hi <= hiD {
		t.Fatalf("at ρ=0.6 dense A should win: sp=%g d=%g", hi, hiD)
	}
}

// TestWriteAsymmetry: a sparse target is much more expensive than a dense
// one at equal density once the density is above ρ0^W.
func TestWriteAsymmetry(t *testing.T) {
	p := Default()
	m, k, n := 256, 256, 256
	spC := p.Mult(mat.Sparse, mat.Sparse, mat.Sparse, m, k, n, 0.01, 0.01, 0.5)
	dC := p.Mult(mat.Sparse, mat.Sparse, mat.DenseKind, m, k, n, 0.01, 0.01, 0.5)
	if spC <= dC {
		t.Fatalf("dense target should win at ρC=0.5: spC=%g dC=%g", spC, dC)
	}
	spC = p.Mult(mat.Sparse, mat.Sparse, mat.Sparse, m, k, n, 0.001, 0.001, 0.001)
	dC = p.Mult(mat.Sparse, mat.Sparse, mat.DenseKind, m, k, n, 0.001, 0.001, 0.001)
	if spC >= dC {
		t.Fatalf("sparse target should win at ρC=0.001: spC=%g dC=%g", spC, dC)
	}
}

func TestMultMonotoneInDensity(t *testing.T) {
	p := Default()
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(500), 1+r.Intn(500), 1+r.Intn(500)
		r1, r2 := r.Float64(), r.Float64()
		if r1 > r2 {
			r1, r2 = r2, r1
		}
		// Higher ρA cannot make a sparse-A multiplication cheaper.
		c1 := p.Mult(mat.Sparse, mat.Sparse, mat.Sparse, m, k, n, r1, 0.5, 0.5)
		c2 := p.Mult(mat.Sparse, mat.Sparse, mat.Sparse, m, k, n, r2, 0.5, 0.5)
		return c1 <= c2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestMultPositive(t *testing.T) {
	p := Default()
	kinds := [2]mat.Kind{mat.Sparse, mat.DenseKind}
	for _, ka := range kinds {
		for _, kb := range kinds {
			for _, kc := range kinds {
				c := p.Mult(ka, kb, kc, 100, 100, 100, 0.1, 0.1, 0.1)
				if c <= 0 {
					t.Fatalf("Mult(%v,%v,%v) = %g, want > 0", ka, kb, kc, c)
				}
			}
		}
	}
}

func TestConvert(t *testing.T) {
	p := Default()
	if p.Convert(mat.Sparse, mat.Sparse, 100, 100, 0.5) != 0 {
		t.Fatal("identity conversion should be free")
	}
	s2d := p.Convert(mat.Sparse, mat.DenseKind, 100, 100, 0.5)
	d2s := p.Convert(mat.DenseKind, mat.Sparse, 100, 100, 0.5)
	if s2d <= 0 || d2s <= 0 {
		t.Fatal("conversions must have positive cost")
	}
	if d2s <= s2d {
		t.Fatal("dense→sparse should cost more than sparse→dense at equal density (sparse write asymmetry)")
	}
}

func TestChooseKernelPrefersDenseForDenseTile(t *testing.T) {
	p := Default()
	// A sparse tile of density 0.9 multiplied with a dense B: conversion
	// to dense should pay off for a large tile.
	plan := p.ChooseKernel(mat.Sparse, mat.DenseKind, mat.DenseKind, 1024, 1024, 1024, 0.9, 1, 1)
	if !plan.ConvA || plan.KindA != mat.DenseKind {
		t.Fatalf("plan = %+v, want A converted to dense", plan)
	}
	// A hypersparse tile must stay sparse.
	plan = p.ChooseKernel(mat.Sparse, mat.DenseKind, mat.DenseKind, 1024, 1024, 1024, 0.001, 1, 1)
	if plan.ConvA {
		t.Fatalf("plan = %+v, want A kept sparse", plan)
	}
}

func TestChooseKernelNeverWorseThanNoConversion(t *testing.T) {
	p := Default()
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		kinds := [2]mat.Kind{mat.Sparse, mat.DenseKind}
		ka, kb, kc := kinds[r.Intn(2)], kinds[r.Intn(2)], kinds[r.Intn(2)]
		m, k, n := 1+r.Intn(2000), 1+r.Intn(2000), 1+r.Intn(2000)
		ra, rb, rc := r.Float64(), r.Float64(), r.Float64()
		plan := p.ChooseKernel(ka, kb, kc, m, k, n, ra, rb, rc)
		asIs := p.Mult(ka, kb, kc, m, k, n, ra, rb, rc)
		return plan.Cost <= asIs && plan.Cost > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// TestChooseKernelKeepsDenseOperandsDense pins the invariant ATMULT's
// operand resolution relies on: the optimizer may upgrade a sparse operand
// to dense but never proposes the reverse, so a dense operand reaches the
// kernels dense whatever the kinds, shapes and densities.
func TestChooseKernelKeepsDenseOperandsDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		kinds := [2]mat.Kind{mat.Sparse, mat.DenseKind}
		ka, kb, kc := kinds[r.Intn(2)], kinds[r.Intn(2)], kinds[r.Intn(2)]
		m, k, n := 1+r.Intn(4096), 1+r.Intn(4096), 1+r.Intn(4096)
		ra, rb, rc := r.Float64(), r.Float64(), r.Float64()
		if r.Intn(3) == 0 { // hypersparse, where a sparse form would be cheapest
			ra, rb, rc = ra/1000, rb/1000, rc/1000
		}
		plan := Default().ChooseKernel(ka, kb, kc, m, k, n, ra, rb, rc)
		return (ka != mat.DenseKind || plan.KindA == mat.DenseKind) &&
			(kb != mat.DenseKind || plan.KindB == mat.DenseKind)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// TestOuterCrossover pins the structure of the outer-product SpGEMM cost
// curve: the merge kernel is modelled cheaper exactly on the hypersparse
// side of RunsOuter, the crossover sits between two and three runs per
// output row (the measured software crossover once both kernels are timed
// until their rows are final), and the curve is monotone in the run count.
func TestOuterCrossover(t *testing.T) {
	p := Default()
	x := p.RunsOuter()
	if x < 1.5 || x > 3 {
		t.Fatalf("RunsOuter = %g, want within [1.5, 3] (measured crossover 2–3 runs/row)", x)
	}
	n := 4096
	// Below the crossover: ρA·k = x/2 runs per row.
	if !p.PreferOuter(n, n, n, x/2/float64(n), 0.001) {
		t.Fatal("outer not preferred below the crossover")
	}
	// Above: 4·x runs per row.
	if p.PreferOuter(n, n, n, 4*x/float64(n), 0.001) {
		t.Fatal("outer preferred above the crossover")
	}
	// Degenerate densities never select the merge kernel.
	if p.PreferOuter(n, n, n, 0, 0.5) || p.PreferOuter(n, n, n, 0.5, 0) {
		t.Fatal("outer preferred for an empty operand")
	}
	prev := 0.0
	for _, runs := range []float64{0.25, 0.5, 1, 2, 4, 8, 16, 32} {
		c := p.OuterPerFlop(runs)
		if c < prev {
			t.Fatalf("OuterPerFlop not monotone at runs=%g", runs)
		}
		prev = c
	}
	if p.OuterPerFlop(0.5) >= p.GustavsonPerFlop() {
		t.Fatal("outer append floor should undercut the Gustavson scatter")
	}
}
