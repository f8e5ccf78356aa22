package core

import (
	"math/rand"
	"time"

	"atmatrix/internal/costmodel"
	"atmatrix/internal/kernels"
	"atmatrix/internal/mat"
)

// CalibrateCostModel refits the cost-model constants to the current
// machine by timing small kernel invocations, keeping the model's structure
// and clamping the per-flop ratios so the conversion zone survives. No
// configuration decides by it: the server and the figure harness run
// costmodel.Default(). It stays only for the benchmark driver's regret
// probe, which compares the fit against Default, and goes with that call.
func CalibrateCostModel() costmodel.Params {
	p := costmodel.Default()
	const n = 192
	const rho = 0.05
	rng := rand.New(rand.NewSource(1))
	cells := n * n
	nnz := int(rho * float64(cells))
	ac := mat.RandomCOO(rng, n, n, nnz)
	bc := mat.RandomCOO(rng, n, n, nnz)
	full := mat.RandomDense(rng, n, n)
	as, bs := ac.ToCSR(), bc.ToCSR()

	// Dense-dense per flop: a full DDD does n³ multiply-adds.
	c := mat.NewDense(n, n)
	dddFlop := timePerUnit(func() { kernels.DDD(c, full, full) }, float64(n)*float64(n)*float64(n))

	// Mixed per flop: SpDD does nnzA·n multiply-adds.
	c.Zero()
	mixedFlop := timePerUnit(func() { kernels.SpDD(c, kernels.FullCSR(as), full) },
		float64(as.NNZ())*float64(n))

	// Sparse-sparse per flop (dense target isolates the scatter-free
	// flop cost): flops ≈ nnzA·nnzB/n.
	c.Zero()
	spFlop := timePerUnit(func() { kernels.SpSpD(c, kernels.FullCSR(as), kernels.FullCSR(bs)) },
		float64(as.NNZ())*float64(bs.NNZ())/float64(n))

	// Sparse-target overhead per produced non-zero.
	spa := kernels.NewSPA(n)
	var outNNZ int64
	spWrite := timePerUnit(func() {
		acc := kernels.NewSpAcc(n, n)
		kernels.SpSpSp(acc, 0, 0, kernels.FullCSR(as), kernels.FullCSR(bs), spa)
		outNNZ = acc.ToCSR().NNZ()
	}, 1)

	// Normalize to FlopDD = 1.
	if dddFlop > 0 {
		p.FlopSp = clampRatio(spFlop/dddFlop, 1.5, 16)
		p.FlopMixed = clampRatio(mixedFlop/dddFlop, 1.2, 20)
		if outNNZ > 0 {
			perNZ := (spWrite - spFlop*float64(as.NNZ())*float64(bs.NNZ())/float64(n)) / float64(outNNZ)
			p.WriteSp = clampRatio(perNZ/dddFlop, 4, 64)
		}
	}
	// Keep the conversion zone: the mixed turnaround must stay at or
	// below the sparse-sparse turnaround (FlopMixed ≥ FlopSp).
	if p.FlopMixed < p.FlopSp {
		p.FlopMixed = p.FlopSp * 1.25
	}

	// Outer-product crossover: time OuterSpSp against SpSpSp at two
	// operating points — hypersparse (runs = ρA·k ≈ 0.5, where the merge
	// kernel's tree-free fast paths should win) and runs ≈ 2, where the
	// curves are measured to cross — and refit the outer cost curve from
	// the measured ratios, expressed against the model's own Gustavson
	// per-flop cost so only ratios matter. The curve is only ever asked on
	// which side of Gustavson it lies, so it is fitted where that flips,
	// not deep in the tree regime whose steeper growth a single log term
	// cannot also follow. Both sides are timed until their rows are final,
	// which a one-contribution kernel call leaves them: Gustavson pays the
	// ordered emit of its scattered row, the merge kernel emits in order for
	// free, and that difference is part of the crossover. Clamps keep a degenerate
	// measurement from inverting the curve (OuterAppend must stay below the
	// Gustavson cost for the hypersparse class to ever be routed to the
	// merge kernel, and MergeStep must stay positive so dense-ish tiles
	// never are).
	{
		const hn = 512
		scr := kernels.NewScratch()
		gustAt := func(as2, bs2 *mat.CSR) float64 {
			return timePerUnit(func() {
				acc := scr.Acc(hn, hn)
				kernels.SpSpSp(acc, 0, 0, kernels.FullCSR(as2), kernels.FullCSR(bs2), scr.SPA())
			}, 1)
		}
		outerAt := func(as2, bs2 *mat.CSR) float64 {
			return timePerUnit(func() {
				acc := scr.Acc(hn, hn)
				kernels.OuterSpSp(acc, 0, 0, kernels.FullCSR(as2), kernels.FullCSR(bs2), scr.Merge())
			}, 1)
		}
		mk := func(rho float64) (*mat.CSR, *mat.CSR) {
			hnnz := int(rho * hn * hn)
			return mat.RandomCOO(rng, hn, hn, hnnz).ToCSR(),
				mat.RandomCOO(rng, hn, hn, hnnz).ToCSR()
		}
		gustCost := p.GustavsonPerFlop()
		hA, hB := mk(0.5 / hn) // runs ≈ 0.5/row
		if g := gustAt(hA, hB); g > 0 {
			p.OuterAppend = clampRatio(outerAt(hA, hB)/g*gustCost, 0.5, gustCost-0.25)
		}
		mA, mB := mk(2.0 / hn) // runs ≈ 2/row
		if g := gustAt(mA, mB); g > 0 {
			// OuterPerFlop(2) = OuterAppend + MergeStep.
			p.MergeStep = clampRatio(outerAt(mA, mB)/g*gustCost-p.OuterAppend, 0.5, 32)
		}
	}
	return p
}

// timePerUnit runs f a few times and returns the best per-unit duration in
// abstract units (nanoseconds per unit).
func timePerUnit(f func(), units float64) float64 {
	if units <= 0 {
		units = 1
	}
	best := 0.0
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		f()
		d := float64(time.Since(t0).Nanoseconds()) / units
		if best == 0 || d < best {
			best = d
		}
	}
	return best
}

func clampRatio(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
