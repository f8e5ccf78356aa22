package expr

import (
	"math"

	"atmatrix/internal/core"
)

// Expression-level Freivalds verification. The classical check compares
// C·x against A·(B·x) for random ±1 probes x; here the right-hand side
// generalizes to *applying the expression tree* to x — products apply
// right-to-left, transposes flip the application direction ((E)ᵀ·x pushes
// a transposed application into E), sums add the branch applications, and
// pow applies its base k times. Every application is one sweep of an
// operand's stored cells, so verification never materializes anything the
// fused executor avoided materializing — which is the point: it
// independently checks the fused result against the *operands*, not against
// another execution of the same plan.

// Verify runs k Freivalds rounds of result against the expression over
// the bindings, on the calling goroutine. On failure it returns a
// *core.VerifyError (matching core.ErrVerifyFailed), so callers classify it
// exactly like a failed product verification.
func Verify(n Node, bind map[string]*core.ATMatrix, result *core.ATMatrix, k int, seed int64) error {
	return VerifyOn(core.Sweeper{}, n, bind, result, k, seed)
}

// VerifyOn is Verify with the matrix sweeps run by s (see
// core.VerifyProductOn for what else it can then return). The k probes
// travel through the tree as one panel with the magnitude column |expr|·1,
// which bounds every probe row and scales the comparison tolerance like
// core.VerifyProduct does; the error of a deep expression accumulates over
// its stages, so the relative tolerance additionally grows with the probe
// depth.
func VerifyOn(s core.Sweeper, n Node, bind map[string]*core.ATMatrix, result *core.ATMatrix, k int, seed int64) error {
	relTol := 1e-9 * float64(nodeDepth(n))
	return s.Freivalds(result, k, seed, relTol, func(x core.Panel) (core.Panel, error) {
		return applyProbes(s, n, bind, x, false)
	})
}

// applyProbes applies the expression (or its transpose, with trans) to the
// probe panel x: one sweep per operand occurrence. Column 0 is the
// magnitude column — every operand entry and scalar enters it by absolute
// value and a difference adds. x is only read.
func applyProbes(s core.Sweeper, n Node, bind map[string]*core.ATMatrix, x core.Panel, trans bool) (core.Panel, error) {
	switch v := n.(type) {
	case *Ident:
		m := bind[v.Name]
		rows := m.Rows
		if trans {
			rows = m.Cols
		}
		out := core.NewPanel(rows)
		return out, s.Mul(m, trans, x, out)
	case *Scale:
		out, err := applyProbes(s, v.X, bind, x, trans)
		if err != nil {
			return out, err
		}
		for j := 0; j < out.Width(); j++ {
			sc := v.S
			if j == 0 {
				sc = math.Abs(sc)
			}
			col := out.Col(j)
			for i := range col {
				col[i] *= sc
			}
		}
		return out, nil
	case *Mul:
		// (F1·…·Fm)·x applies right-to-left; the transpose,
		// Fmᵀ·…·F1ᵀ·x, left-to-right with every factor transposed.
		cur := x
		for i := range v.Factors {
			f := v.Factors[i]
			if !trans {
				f = v.Factors[len(v.Factors)-1-i]
			}
			var err error
			if cur, err = applyProbes(s, f, bind, cur, trans); err != nil {
				return cur, err
			}
		}
		return cur, nil
	case *Add:
		l, err := applyProbes(s, v.L, bind, x, trans)
		if err != nil {
			return l, err
		}
		r, err := applyProbes(s, v.R, bind, x, trans)
		if err != nil {
			return l, err
		}
		for j := 0; j < l.Width(); j++ {
			lc, rc := l.Col(j), r.Col(j)
			if v.Sub && j > 0 {
				for i := range lc {
					lc[i] -= rc[i]
				}
			} else {
				for i := range lc {
					lc[i] += rc[i]
				}
			}
		}
		return l, nil
	case *Transpose:
		return applyProbes(s, v.X, bind, x, !trans)
	case *Pow:
		cur := x
		for i := 0; i < v.K; i++ {
			var err error
			if cur, err = applyProbes(s, v.X, bind, cur, trans); err != nil {
				return cur, err
			}
		}
		return cur, nil
	}
	panic("expr: applyProbes: unknown node")
}

// nodeDepth counts the longest multiplication path through the tree (a
// pow node contributes its full exponent), the factor by which rounding
// error can stack.
func nodeDepth(n Node) int {
	switch v := n.(type) {
	case *Ident:
		return 1
	case *Scale:
		return nodeDepth(v.X)
	case *Mul:
		d := 0
		for _, f := range v.Factors {
			d += nodeDepth(f)
		}
		return d
	case *Add:
		l, r := nodeDepth(v.L), nodeDepth(v.R)
		if r > l {
			return r
		}
		return l
	case *Transpose:
		return nodeDepth(v.X)
	case *Pow:
		return v.K * nodeDepth(v.X)
	}
	return 1
}
