package expr

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"atmatrix/internal/core"
	"atmatrix/internal/faultinject"
	"atmatrix/internal/mat"
	"atmatrix/internal/rmat"
	"atmatrix/internal/sched"
)

func testCfg() core.Config {
	cfg := core.DefaultConfig()
	cfg.LLCBytes = 3 * 8 * 64 * 64
	cfg.BAtomic = 16
	cfg.Topology.Sockets = 2
	cfg.Topology.CoresPerSocket = 2
	return cfg
}

// testBindings builds the shared R-MAT operand set: three 128×128 graphs
// with the paper's skewed parameters, a skinny 128×8 panel, and a 128×1
// vector.
func testBindings(t *testing.T, cfg core.Config) map[string]*core.ATMatrix {
	t.Helper()
	t.Cleanup(func() { sched.RuntimeFor(cfg.Topology).Close() })
	const n = 128
	bind := make(map[string]*core.ATMatrix)
	put := func(name string, coo *mat.COO) {
		m, _, err := core.Partition(coo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		bind[name] = m
	}
	params, err := rmat.PaperParams(1)
	if err != nil {
		params = rmat.Uniform()
	}
	for i, name := range []string{"A", "B", "C"} {
		coo, err := rmat.Generate(n, n*8, params, int64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		put(name, coo)
	}
	rng := rand.New(rand.NewSource(7))
	put("x", mat.RandomCOO(rng, n, 8, n*4))
	put("r", mat.RandomCOO(rng, n, 1, n))
	return bind
}

func atmBytes(t *testing.T, m *core.ATMatrix) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// ---------------------------------------------------------------------
// Dense reference evaluation: an independent, obviously-correct evaluator
// the fused executor is compared against.

func refClone(a *mat.Dense) *mat.Dense {
	out := mat.NewDense(a.Rows, a.Cols)
	for r := 0; r < a.Rows; r++ {
		copy(out.RowSlice(r), a.RowSlice(r))
	}
	return out
}

func refTranspose(a *mat.Dense) *mat.Dense {
	out := mat.NewDense(a.Cols, a.Rows)
	for r := 0; r < a.Rows; r++ {
		for c := 0; c < a.Cols; c++ {
			out.Set(c, r, a.At(r, c))
		}
	}
	return out
}

func refEval(t *testing.T, n Node, bind map[string]*mat.Dense) *mat.Dense {
	t.Helper()
	switch v := n.(type) {
	case *Ident:
		m, ok := bind[v.Name]
		if !ok {
			t.Fatalf("refEval: unbound %q", v.Name)
		}
		return refClone(m)
	case *Scale:
		out := refEval(t, v.X, bind)
		for i := range out.Data {
			out.Data[i] *= v.S
		}
		return out
	case *Mul:
		out := refEval(t, v.Factors[0], bind)
		for _, f := range v.Factors[1:] {
			out = mat.MulReference(out, refEval(t, f, bind))
		}
		return out
	case *Add:
		l := refEval(t, v.L, bind)
		r := refEval(t, v.R, bind)
		sign := 1.0
		if v.Sub {
			sign = -1
		}
		for rr := 0; rr < l.Rows; rr++ {
			for c := 0; c < l.Cols; c++ {
				l.Add(rr, c, sign*r.At(rr, c))
			}
		}
		return l
	case *Transpose:
		return refTranspose(refEval(t, v.X, bind))
	case *Pow:
		base := refEval(t, v.X, bind)
		out := base
		for i := 2; i <= v.K; i++ {
			out = mat.MulReference(out, base)
		}
		return out
	}
	t.Fatalf("refEval: unknown node %T", n)
	return nil
}

func denseBindings(bind map[string]*core.ATMatrix) map[string]*mat.Dense {
	out := make(map[string]*mat.Dense, len(bind))
	for k, v := range bind {
		out[k] = v.ToDense()
	}
	return out
}

// requireClose fails unless got matches want entrywise within a tolerance
// scaled to the magnitude of the reference.
func requireClose(t *testing.T, label string, got *core.ATMatrix, want *mat.Dense) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %d×%d, want %d×%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	gd := got.ToDense()
	scale := 0.0
	for _, v := range want.Data {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	tol := 1e-9 * (1 + scale)
	for r := 0; r < want.Rows; r++ {
		for c := 0; c < want.Cols; c++ {
			if d := math.Abs(gd.At(r, c) - want.At(r, c)); d > tol || math.IsNaN(d) {
				t.Fatalf("%s: [%d,%d] = %g, want %g (diff %g > tol %g)",
					label, r, c, gd.At(r, c), want.At(r, c), d, tol)
			}
		}
	}
}

// TestEvalMatchesReference is the property test of the fused executor:
// for every expression shape — panel-fused skinny chains, row-streamed
// wide chains, materialized fallbacks, sums, transposes, scalar folds —
// both the fused and the forced-materialized execution must agree with an
// independent dense reference evaluation on R-MAT inputs.
func TestEvalMatchesReference(t *testing.T) {
	cfg := testCfg()
	bind := testBindings(t, cfg)
	dense := denseBindings(bind)
	// Fused chains whose returned layout is pinned byte for byte, see below.
	pinned := map[string]string{"A*A*A": "row-stream", "A*B*C": "row-stream", "pow(A,3)*x": "panel", "A*B*C*x": "panel"}
	exprs := []string{
		"A*B",
		"A*A*A",
		"pow(A,3)*x",
		"A*B*C",
		"A*B*x",
		"A*B*C*x",
		"pow(A,4)*x",
		"pow(A,3)",
		"pow(A,2)*B*x",
		"A'*B",
		"(A*B)'",
		"0.5*A*B + C'",
		"(A+B)*C",
		"A - B",
		"2*A*3*x",
		"0.85*A*r + 0.15*r",
		"-1*A*x",
		"A'*(B+C)*A",
		"(A+B)*C'*A'*x",
	}
	for _, src := range exprs {
		node, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		want := refEval(t, node, dense)
		for _, materialize := range []bool{false, true} {
			got, plan, st, err := Eval(src, bind, cfg, Options{Materialize: materialize})
			if err != nil {
				t.Fatalf("Eval(%q, materialize=%v): %v", src, materialize, err)
			}
			label := src
			if materialize {
				label += " [materialized]"
			} else {
				label += " [" + plan.Summary().Fusion + "]"
			}
			requireClose(t, label, got, want)
			// A fused chain sums in another order than the materialized one,
			// so values are compared within tolerance — but the layout it
			// hands back must be, byte for byte, what partitioning its own
			// entries from a staging table gives.
			if fusion, pin := pinned[src]; pin && !materialize {
				if plan.Summary().Fusion != fusion {
					t.Fatalf("%s: fusion %s, want %s", label, plan.Summary().Fusion, fusion)
				}
				ref, _, err := core.Partition(got.ToCOO(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(atmBytes(t, got), atmBytes(t, ref)) {
					t.Errorf("%s: layout differs from Partition(out.ToCOO())", label)
				}
			}
			if st.Stages == 0 {
				t.Errorf("%s: no stages recorded", label)
			}
			// A materialized chain runs in the order the plan reports: the
			// chain's last step is the whole association order.
			if _, chain := node.(*Mul); chain && materialize {
				if last := st.Steps[len(st.Steps)-1].Expr; last != plan.Summary().Order {
					t.Errorf("%s: executed %s, plan reported %s", label, last, plan.Summary().Order)
				}
			}
		}
	}
}

// TestFusionSelection pins which strategy the planner picks for the
// canonical shapes.
func TestFusionSelection(t *testing.T) {
	cfg := testCfg()
	bind := testBindings(t, cfg)
	cases := []struct {
		src  string
		want string
	}{
		{"pow(A,10)*x", "panel"},     // skinny right end, pow applied in-place
		{"A*B*x", "panel"},           // skinny right end
		{"A*B*C", "row-stream"},      // ≥3 wide square factors, left-assoc ≈ optimal
		{"A*B", "materialized"},      // two wide factors: nothing to fuse
		{"pow(A,3)", "materialized"}, // wide pow: repeated materialized multiply
	}
	for _, c := range cases {
		node, err := Parse(c.src)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := PlanExpr(node, bind, cfg, Options{})
		if err != nil {
			t.Fatalf("PlanExpr(%q): %v", c.src, err)
		}
		if got := plan.Summary().Fusion; got != c.want {
			t.Errorf("fusion(%q) = %s, want %s", c.src, got, c.want)
		}
	}
	// Materialize forces the baseline everywhere.
	node, _ := Parse("pow(A,10)*x")
	plan, err := PlanExpr(node, bind, cfg, Options{Materialize: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Summary().Fusion; got != "materialized" {
		t.Errorf("Materialize override ignored: fusion = %s", got)
	}
}

// TestIterationsOverride: the Iterations option rewrites every pow()
// exponent, and the result matches the explicit expression.
func TestIterationsOverride(t *testing.T) {
	cfg := testCfg()
	bind := testBindings(t, cfg)
	dense := denseBindings(bind)
	got, _, _, err := Eval("pow(A,2)*x", bind, cfg, Options{Iterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	node, err := Parse("pow(A,5)*x")
	if err != nil {
		t.Fatal(err)
	}
	requireClose(t, "pow(A,2)*x @ iterations=5", got, refEval(t, node, dense))
}

// TestFusedPeakBelowMaterialized: the point of fusion — the fused
// execution of a power chain keeps a bounded double-buffered panel while
// the materialized baseline's peak grows with the densifying powers of A.
func TestFusedPeakBelowMaterialized(t *testing.T) {
	cfg := testCfg()
	bind := testBindings(t, cfg)
	const src = "pow(A,6)*x"
	_, _, fused, err := Eval(src, bind, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, _, matl, err := Eval(src, bind, cfg, Options{Materialize: true})
	if err != nil {
		t.Fatal(err)
	}
	if fused.FusedStages == 0 {
		t.Fatalf("fused run reports no fused stages: %+v", fused)
	}
	if matl.FusedStages != 0 {
		t.Fatalf("materialized run reports fused stages: %+v", matl)
	}
	if fused.PeakIntermediateBytes >= matl.PeakIntermediateBytes {
		t.Errorf("fused peak %d B ≥ materialized peak %d B",
			fused.PeakIntermediateBytes, matl.PeakIntermediateBytes)
	}
}

// TestVerifyExpression: the expression-level Freivalds check accepts the
// fused result and rejects a corrupted one with core.ErrVerifyFailed.
func TestVerifyExpression(t *testing.T) {
	cfg := testCfg()
	bind := testBindings(t, cfg)
	for _, src := range []string{"A*B*C", "pow(A,4)*x", "0.5*A*B + C'"} {
		out, plan, _, err := Eval(src, bind, cfg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(plan.Expr, bind, out, 3, 42); err != nil {
			t.Errorf("Verify(%q) rejected a correct result: %v", src, err)
		}
		corrupt(t, out)
		err = Verify(plan.Expr, bind, out, 3, 42)
		if err == nil {
			t.Errorf("Verify(%q) accepted a corrupted result", src)
			continue
		}
		if !errors.Is(err, core.ErrVerifyFailed) {
			t.Errorf("Verify(%q) error %v does not wrap core.ErrVerifyFailed", src, err)
		}
	}
}

// corrupt flips one stored value of the matrix.
func corrupt(t *testing.T, m *core.ATMatrix) {
	t.Helper()
	for _, tile := range m.Tiles {
		if tile.Kind == mat.Sparse && len(tile.Sp.Val) > 0 {
			tile.Sp.Val[0] += 1.5
			return
		}
		if tile.Kind == mat.DenseKind && len(tile.D.Data) > 0 {
			tile.D.Data[0] += 1.5
			return
		}
	}
	t.Fatal("corrupt: matrix has no stored values")
}

// TestPlanStageFaultSites: the two expression fault sites behave per the
// chaos contract — expr.plan transient errors are retryable, expr.stage
// panics surface as a typed, non-transient *StagePanicError.
func TestPlanStageFaultSites(t *testing.T) {
	cfg := testCfg()
	bind := testBindings(t, cfg)
	t.Cleanup(faultinject.Disable)

	faultinject.Enable(1, faultinject.Rule{Site: "expr.plan", Kind: faultinject.KindTransient})
	_, _, _, err := Eval("A*B*C", bind, cfg, Options{})
	var tr interface{ Transient() bool }
	if err == nil || !errors.As(err, &tr) || !tr.Transient() {
		t.Fatalf("expr.plan transient fault: err = %v, want transient", err)
	}
	faultinject.Disable()

	faultinject.Enable(1, faultinject.Rule{Site: "expr.stage", Kind: faultinject.KindPanic})
	_, _, _, err = Eval("A*B*C", bind, cfg, Options{})
	var spe *StagePanicError
	if err == nil || !errors.As(err, &spe) {
		t.Fatalf("expr.stage panic: err = %v, want *StagePanicError", err)
	}
	if errors.As(err, &tr) && tr.Transient() {
		t.Fatalf("stage panic classified transient; it must be permanent for quarantine")
	}
}

// TestPlanInvalid: semantic validation failures wrap ErrInvalid.
func TestPlanInvalid(t *testing.T) {
	cfg := testCfg()
	bind := testBindings(t, cfg)
	for _, src := range []string{"A*missing", "A*r*B", "A + x", "pow(x,2)"} {
		node, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := PlanExpr(node, bind, cfg, Options{}); !errors.Is(err, ErrInvalid) {
			t.Errorf("PlanExpr(%q) error = %v, want ErrInvalid", src, err)
		}
	}
}
