// Package costmodel implements the eightfold multiplication cost model of
// the paper (§II-C3, §III-C, based on SpMacho): one cost function per
// {sparse,dense}³ kernel combination, parameterised by the operand
// dimensions m×k·k×n and the densities ρA, ρB and the estimated result
// density ρ̂C. The model drives three decisions:
//
//  1. the read density threshold ρ0^R used by the partitioner to classify
//     tiles as sparse or dense (the density turnaround point, i.e. the
//     intersection of the sparse and dense kernel cost functions),
//  2. the write density threshold ρ0^W for result tiles (much lower,
//     because writing a sparse tile is far more expensive than reading
//     one — the read/write asymmetry of §III-C),
//  3. the dynamic optimizer's just-in-time conversion choices at tile-
//     multiplication granularity.
//
// Costs are in abstract time units (roughly nanoseconds on the reference
// machine); only ratios matter for the decisions. The server and the
// figure harness both decide by one committed table, Default;
// core.CalibrateCostModel's refit serves only the benchmark's regret probe.
package costmodel

import (
	"math"

	"atmatrix/internal/mat"
)

// Params holds the per-operation cost constants of the model.
type Params struct {
	// FlopDD is the cost of one multiply-add in a fully dense inner loop
	// (contiguous reads and writes, vectorizable).
	FlopDD float64
	// FlopSp is the cost of one multiply-add when both operands are
	// sparse (only matching non-zero pairs are touched). The ratio
	// FlopDD/FlopSp defines the read density turnaround ρ0^R.
	FlopSp float64
	// FlopMixed is the cost of one multiply-add when exactly one operand
	// is sparse: each inner-loop step pairs an indirect access with a
	// dense stream, defeating vectorization while still touching full
	// cache lines. FlopMixed > FlopSp places the mixed-kernel turnaround
	// FlopDD/FlopMixed *below* ρ0^R — which is why ATMULT's dynamic
	// optimizer converts tiles whose density lies slightly below the
	// read threshold when the other operand is dense (the R1 situation
	// of §IV-D).
	FlopMixed float64
	// ReadSp is the per-element overhead of iterating a sparse operand
	// (pointer chasing through RowPtr/ColIdx).
	ReadSp float64
	// WriteD is the per-cell cost of initializing/flushing a dense target.
	WriteD float64
	// WriteSp is the per-element cost of materializing a sparse result
	// (accumulator flush, column sort, CSR append). The ratio
	// WriteD/WriteSp defines the write density turnaround ρ0^W.
	WriteSp float64
	// ScatterSp is the extra per-flop penalty when accumulating into a
	// sparse target instead of a dense one.
	ScatterSp float64
	// ConvCell is the per-cell scan/initialization cost of a tile
	// conversion in either direction.
	ConvCell float64
	// OuterAppend is the per-flop cost of the outer-product SpGEMM's
	// fast paths (≤2 live runs per output row: scaled copy or two-pointer
	// merge, a straight sorted append with no accumulator scatter). It is
	// the floor of the outer-product cost curve.
	OuterAppend float64
	// MergeStep is the per-flop, per-tree-level cost of the outer-product
	// kernel's loser-tree merge: each emitted element pays ~log2(R)
	// replay comparisons for R partial-product runs per output row. The
	// intersection of OuterAppend + MergeStep·log2(R) with the Gustavson
	// curve FlopSp + ScatterSp defines the outer-product crossover RunsOuter
	// (2 stored elements per A row with the default constants).
	MergeStep float64
}

// Default returns constants fitted to the relative costs observed with the
// pure-Go kernels in this repository. They yield ρ0^R = 0.25 — the value
// the paper uses for its test system — and ρ0^W = 0.0625.
//
// OuterAppend and MergeStep are fitted to kernel + combine time, i.e. until
// a contribution's rows are final: Gustavson's flush pays the ordered emit
// of its scattered row while the merge kernel emits in order for free. On
// uniformly random tiles of side 512–4096 the merge kernel then costs
// 0.6–0.7× Gustavson up to one run per output row and breaks even between
// 2 and 3, so the floor is ⅔ of the Gustavson per-flop cost and the curve
// crosses it at 2 runs.
func Default() Params {
	return Params{
		FlopDD:      1.0,
		FlopSp:      4.0,
		FlopMixed:   5.0,
		ReadSp:      2.0,
		WriteD:      1.0,
		WriteSp:     16.0,
		ScatterSp:   2.0,
		ConvCell:    1.0,
		OuterAppend: 4.0,
		MergeStep:   2.0,
	}
}

// RhoRead returns ρ0^R, the read density turnaround point: the operand
// density at which the dense representation starts to be more
// time-efficient than the sparse one. It is the intersection of the
// per-element costs of the sparse and dense inner loops,
// ρ·FlopSp = FlopDD, i.e. it approximates the turnaround for the
// sparse-sparse kernel; per-kernel turnarounds deviate (RhoReadMixed),
// which is exactly the gap the dynamic optimizer closes at runtime
// (§II-C3).
func (p Params) RhoRead() float64 { return p.FlopDD / p.FlopSp }

// RhoReadMixed returns the turnaround of the mixed kernels (one sparse
// operand against a dense one): FlopDD/FlopMixed, below RhoRead.
func (p Params) RhoReadMixed() float64 { return p.FlopDD / p.FlopMixed }

// RhoWrite returns ρ0^W, the write density turnaround point, the analogous
// intersection for result tiles: ρ·WriteSp = WriteD.
func (p Params) RhoWrite() float64 { return p.WriteD / p.WriteSp }

// Mult estimates the runtime of one kernel invocation computing
// C[m×n] += A[m×k]·B[k×n] with the given physical kinds and densities.
func (p Params) Mult(kindA, kindB, kindC mat.Kind, m, k, n int, rhoA, rhoB, rhoC float64) float64 {
	effA, effB := 1.0, 1.0
	var read float64
	if kindA == mat.Sparse {
		effA = rhoA
		read += float64(m) * float64(k) * rhoA * p.ReadSp
	}
	if kindB == mat.Sparse {
		effB = rhoB
		// B rows are revisited once per contributing A element; charge the
		// sparse iteration overhead per inner-loop visit instead of per
		// stored element.
	}
	flops := float64(m) * float64(k) * float64(n) * effA * effB
	perFlop := p.FlopDD
	switch {
	case kindA == mat.Sparse && kindB == mat.Sparse:
		perFlop = p.FlopSp
	case kindA == mat.Sparse || kindB == mat.Sparse:
		perFlop = p.FlopMixed
	}
	cost := flops*perFlop + read
	if kindC == mat.Sparse {
		cost += flops * p.ScatterSp
		cost += rhoC * float64(m) * float64(n) * p.WriteSp
	} else {
		cost += float64(m) * float64(n) * p.WriteD
	}
	return cost
}

// GustavsonPerFlop is the modelled per-flop cost of the row-form SpGEMM
// (SpSpSp): the sparse multiply-add plus the SPA scatter into the sparse
// target.
func (p Params) GustavsonPerFlop() float64 { return p.FlopSp + p.ScatterSp }

// OuterPerFlop is the modelled per-flop cost of the outer-product
// multiway-merge SpGEMM (OuterSpSp) when A rows select `runs` sorted
// partial-product runs on average (runs = ρA·k): the sorted append plus
// ~log2(runs) loser-tree comparisons per emitted element. At runs ≤ 1
// almost every output row takes a tree-free fast path (scaled copy or
// two-pointer merge), so only the append floor remains; above 1 the
// Poisson tail of run counts engages the tree and the log term applies.
func (p Params) OuterPerFlop(runs float64) float64 {
	c := p.OuterAppend
	if runs > 1 {
		c += p.MergeStep * math.Log2(runs)
	}
	return c
}

// RunsOuter returns the outer-product crossover in expected runs per
// output row: below it the merge kernel is modelled cheaper than
// Gustavson. It is the runs value where OuterPerFlop meets
// GustavsonPerFlop (2^((FlopSp+ScatterSp−OuterAppend)/MergeStep)).
func (p Params) RunsOuter() float64 {
	return math.Exp2((p.GustavsonPerFlop() - p.OuterAppend) / p.MergeStep)
}

// PreferOuter reports whether the outer-product merge kernel is modelled
// faster than Gustavson for a sparse×sparse→sparse tile multiplication
// C[m×n] += A[m×k]·B[k×n]. The decision depends on the expected number of
// partial-product runs per output row, ρA·k: up to ~2 most output rows are
// a single scaled B row or a two-run merge, and the kernel wins by never
// touching the SPA and never paying an ordered emit; above it the
// per-element loser-tree replay loses to the SPA scatter. ρA is the density
// that yields the run count a partial product actually meets — callers
// with skewed rows pass a correspondingly higher value (core.runDensity).
// Empty operands fall back to Gustavson (both kernels are trivially cheap
// there).
func (p Params) PreferOuter(m, k, n int, rhoA, rhoB float64) bool {
	if rhoA <= 0 || rhoB <= 0 {
		return false
	}
	runs := rhoA * float64(k)
	return p.OuterPerFlop(runs) < p.GustavsonPerFlop()
}

// Convert estimates the cost of converting an m×n tile of density rho from
// one representation to the other. Sparse→dense zero-fills the array and
// copies nnz elements; dense→sparse scans every cell and writes nnz sparse
// elements.
func (p Params) Convert(from, to mat.Kind, m, n int, rho float64) float64 {
	if from == to {
		return 0
	}
	cells := float64(m) * float64(n)
	nnz := cells * rho
	if to == mat.DenseKind {
		return cells*p.ConvCell + nnz*p.WriteD
	}
	return cells*p.ConvCell + nnz*p.WriteSp
}

// Plan is the outcome of a kernel selection: whether to convert the A
// and/or B operand before multiplying, and the predicted total cost
// including conversions.
type Plan struct {
	KindA, KindB mat.Kind
	ConvA, ConvB bool
	Cost         float64
}

// ChooseKernel evaluates the operand-representation alternatives
// (keep/convert A × keep/convert B) for a single tile multiplication with a
// fixed target kind, adding just-in-time conversion costs, and returns the
// cheapest plan. This is the OPTIMIZE step of Alg. 2 (line 9).
//
// Only sparse→dense upgrades are proposed: converting a dense operand to
// CSR cannot beat streaming the dense representation directly (a dense
// row is the degenerate best case of every sparse inner loop), and the
// conversions the paper observes in its evaluation (§IV-D) are all
// sparse→dense. ATMULT relies on this: it has no dense→sparse operand
// conversion.
func (p Params) ChooseKernel(kindA, kindB, kindC mat.Kind, m, k, n int, rhoA, rhoB, rhoC float64) Plan {
	best := Plan{Cost: -1}
	for _, ka := range alternatives(kindA) {
		for _, kb := range alternatives(kindB) {
			c := p.Mult(ka, kb, kindC, m, k, n, rhoA, rhoB, rhoC)
			if ka != kindA {
				c += p.Convert(kindA, ka, m, k, rhoA)
			}
			if kb != kindB {
				c += p.Convert(kindB, kb, k, n, rhoB)
			}
			if best.Cost < 0 || c < best.Cost {
				best = Plan{KindA: ka, KindB: kb, ConvA: ka != kindA, ConvB: kb != kindB, Cost: c}
			}
		}
	}
	return best
}

// alternatives lists the representations the optimizer may use for an
// operand stored in the given kind: dense operands stay dense; sparse
// operands may be upgraded.
func alternatives(k mat.Kind) []mat.Kind {
	if k == mat.Sparse {
		return []mat.Kind{mat.Sparse, mat.DenseKind}
	}
	return []mat.Kind{mat.DenseKind}
}
