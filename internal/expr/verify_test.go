package expr

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"atmatrix/internal/core"
	"atmatrix/internal/gen"
	"atmatrix/internal/mat"
	"atmatrix/internal/numa"
)

// The oracle for expression verification: Freivalds one vector at a time,
// the tree walked over plain CSR copies of the operands with
// mat.CSR.MatVec — nothing of core's panel kernel is involved.

// oracleOperand holds an operand as CSR, with its transpose and the
// absolute-valued copies of both.
type oracleOperand struct{ m, mT, abs, absT *mat.CSR }

func newOracleOperand(a *core.ATMatrix) oracleOperand {
	m := a.ToCSR()
	abs := m.Clone()
	for i, v := range abs.Val {
		abs.Val[i] = math.Abs(v)
	}
	return oracleOperand{m: m, mT: m.Transpose(), abs: abs, absT: abs.Transpose()}
}

// oracleApply applies the expression (transposed with trans, by magnitude
// with absVal) to one vector.
func oracleApply(n Node, ops map[string]oracleOperand, x []float64, trans, absVal bool) []float64 {
	switch v := n.(type) {
	case *Ident:
		o := ops[v.Name]
		switch {
		case trans && absVal:
			return o.absT.MatVec(x)
		case trans:
			return o.mT.MatVec(x)
		case absVal:
			return o.abs.MatVec(x)
		}
		return o.m.MatVec(x)
	case *Scale:
		out := oracleApply(v.X, ops, x, trans, absVal)
		s := v.S
		if absVal {
			s = math.Abs(s)
		}
		for i := range out {
			out[i] *= s
		}
		return out
	case *Mul:
		cur := x
		for i := range v.Factors {
			f := v.Factors[i]
			if !trans {
				f = v.Factors[len(v.Factors)-1-i]
			}
			cur = oracleApply(f, ops, cur, trans, absVal)
		}
		return cur
	case *Add:
		l := oracleApply(v.L, ops, x, trans, absVal)
		r := oracleApply(v.R, ops, x, trans, absVal)
		for i := range l {
			if v.Sub && !absVal {
				l[i] -= r[i]
			} else {
				l[i] += r[i]
			}
		}
		return l
	case *Transpose:
		return oracleApply(v.X, ops, x, !trans, absVal)
	case *Pow:
		cur := x
		for i := 0; i < v.K; i++ {
			cur = oracleApply(v.X, ops, cur, trans, absVal)
		}
		return cur
	}
	panic("oracleApply: unknown node")
}

type oracleRound struct{ x, z, w []float64 }

// oracleVerify runs all k rounds; it returns the magnitude bound, every
// round's vectors and the first failing probe (nil when none).
func oracleVerify(n Node, ops map[string]oracleOperand, result *core.ATMatrix, k int, seed int64) (bound []float64, rounds []oracleRound, first *core.VerifyError) {
	rng := rand.New(rand.NewSource(seed))
	res := result.ToCSR()
	ones := make([]float64, result.Cols)
	for i := range ones {
		ones[i] = 1
	}
	bound = oracleApply(n, ops, ones, false, true)
	relTol := 1e-9 * float64(nodeDepth(n))
	for round := 1; round <= k; round++ {
		r := oracleRound{x: make([]float64, result.Cols)}
		var bits uint64
		for i := range r.x {
			if i&63 == 0 {
				bits = rng.Uint64()
			}
			r.x[i] = float64(int(bits&1)*2 - 1)
			bits >>= 1
		}
		r.z = oracleApply(n, ops, r.x, false, false)
		r.w = res.MatVec(r.x)
		rounds = append(rounds, r)
		for i := range r.z {
			tol := relTol*bound[i] + 1e-12
			if d := math.Abs(r.z[i] - r.w[i]); (d > tol || math.IsNaN(d)) && first == nil {
				first = &core.VerifyError{Round: round, Row: i, Got: r.w[i], Want: r.z[i], Tol: tol}
			}
		}
	}
	return bound, rounds, first
}

func sameVerdict(t *testing.T, what string, err error, want *core.VerifyError) {
	t.Helper()
	var ve *core.VerifyError
	switch {
	case want == nil && err != nil:
		t.Errorf("%s: %v, the oracle accepts", what, err)
	case want != nil && !errors.As(err, &ve):
		t.Errorf("%s: %v, the oracle rejects at round %d row %d", what, err, want.Round, want.Row)
	case want != nil && (ve.Round != want.Round || ve.Row != want.Row):
		t.Errorf("%s: rejected at round %d row %d, the oracle at round %d row %d", what, ve.Round, ve.Row, want.Round, want.Row)
	}
}

func nearOracle(t *testing.T, what string, got, want, bound []float64) {
	t.Helper()
	for i := range want {
		if d := math.Abs(got[i] - want[i]); !(d <= 1e-12*bound[i]+1e-12) {
			t.Fatalf("%s: row %d is %g, the oracle has %g (bound %g)", what, i, got[i], want[i], bound[i])
		}
	}
}

// serverBindings are eval_chain's operands: the R8, R9 and G9 stand-ins as
// the benchmark generates them (1/16, seed 1) and an n×8 dense panel, at
// the benchmark server's configuration.
func serverBindings(t *testing.T) (map[string]*core.ATMatrix, core.Config) {
	t.Helper()
	cfg := core.PaperConfig()
	cfg.BAtomic = 64
	cfg.Topology = numa.Topology{Sockets: 2, CoresPerSocket: 1}
	bind := make(map[string]*core.ATMatrix)
	for _, id := range []string{"R8", "R9", "G9"} {
		spec, err := gen.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		spec.Seed += 1000
		coo, err := spec.Generate(1.0 / 16)
		if err != nil {
			t.Fatal(err)
		}
		if bind[id], _, err = core.Partition(coo, cfg); err != nil {
			t.Fatal(err)
		}
	}
	bind["x"] = core.FromDense(mat.RandomDense(rand.New(rand.NewSource(7)), bind["G9"].Rows, 8), cfg.BAtomic)
	return bind, cfg
}

// TestFreivaldsMatchesOracle: for the same seed the panel walk draws the
// oracle's probes, computes its vectors to within rounding and returns its
// verdict — on eval_chain's three expressions and on one that subtracts,
// transposes and scales; on correct results and on ones with a flipped bit;
// below and above the slab width; on the caller and on the teams.
func TestFreivaldsMatchesOracle(t *testing.T) {
	bind, cfg := serverBindings(t)
	ops := make(map[string]oracleOperand, len(bind))
	for name, m := range bind {
		ops[name] = newOracleOperand(m)
	}
	teams := core.TeamSweeper(context.Background(), cfg, 0)
	for _, src := range []string{"R9*R9*R9", "pow(G9,10)*x", "0.5*R8'*R8+0.5*R8", "(R8-0.25*R8')'*(2*R8)"} {
		result, plan, _, err := Eval(src, bind, cfg, Options{})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		n := plan.Expr
		for _, flipped := range []bool{false, true} {
			if flipped && !result.FlipOneBit() {
				t.Fatalf("%s: nothing to corrupt", src)
			}
			for seed := int64(1); seed <= 3; seed++ {
				for _, k := range []int{1, 2, 5} {
					what := fmt.Sprintf("%s flipped=%v seed=%d k=%d", src, flipped, seed, k)
					bound, rounds, first := oracleVerify(n, ops, result, k, seed)
					if flipped != (first != nil) {
						t.Fatalf("%s: oracle verdict %v", what, first)
					}
					sameVerdict(t, what+" caller", Verify(n, bind, result, k, seed), first)
					sameVerdict(t, what+" teams", VerifyOn(teams, n, bind, result, k, seed), first)

					slab := 0
					relTol := 1e-9 * float64(nodeDepth(n))
					err := teams.Freivalds(result, k, seed, relTol, func(x core.Panel) (core.Panel, error) {
						z, err := applyProbes(teams, n, bind, x, false)
						if err != nil {
							t.Fatal(err)
						}
						w := core.NewPanel(result.Rows)
						if err := teams.Mul(result, false, x, w); err != nil {
							t.Fatal(err)
						}
						nearOracle(t, what+" bound", z.Col(0), bound, bound)
						for j := 1; j < x.Width() && slab*(x.Width()-1)+j <= k; j++ {
							r := rounds[slab*(x.Width()-1)+j-1]
							for i, v := range r.x {
								if x.Col(j)[i] != v {
									t.Fatalf("%s: round %d probe differs from the oracle's at %d", what, slab*(x.Width()-1)+j, i)
								}
							}
							nearOracle(t, what+" expr·x", z.Col(j), r.z, bound)
							nearOracle(t, what+" result·x", w.Col(j), r.w, bound)
						}
						slab++
						return z, nil
					})
					sameVerdict(t, what+" Freivalds", err, first)
				}
			}
		}
	}
}

// pollCtx reports cancellation from the left+1-th time its Err is asked
// on, so a test can cancel verification at a fixed point of its progress.
type pollCtx struct {
	context.Context
	left atomic.Int64
}

func (c *pollCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestVerifyCancelled: a context cancelled before or between the eleven
// sweeps of pow(G9,10)*x ends verification with the context's error, never
// with a verdict — not even on a wrong result.
func TestVerifyCancelled(t *testing.T) {
	bind, cfg := serverBindings(t)
	result, plan, _, err := Eval("pow(G9,10)*x", bind, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	result.FlipOneBit()
	if err := Verify(plan.Expr, bind, result, 2, 1); !errors.Is(err, core.ErrVerifyFailed) {
		t.Fatalf("wrong result, no cancellation: %v", err)
	}
	for _, polls := range []int64{0, 1, 9, 21} {
		ctx := &pollCtx{Context: context.Background()}
		ctx.left.Store(polls)
		err := VerifyOn(core.TeamSweeper(ctx, cfg, 0), plan.Expr, bind, result, 2, 1)
		if !errors.Is(err, context.Canceled) || errors.Is(err, core.ErrVerifyFailed) {
			t.Errorf("cancelled at poll %d: %v, want context.Canceled", polls+1, err)
		}
	}
}
