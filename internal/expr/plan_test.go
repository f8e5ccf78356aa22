package expr

import (
	"hash/crc32"
	"math"
	"math/rand"
	"slices"
	"testing"

	"atmatrix/internal/core"
	"atmatrix/internal/density"
	"atmatrix/internal/mat"
	"atmatrix/internal/rmat"
	"atmatrix/internal/sched"
)

// panelBindings is a skewed 200×200 R-MAT graph (the G9 class) and a
// 200×8 panel — ragged against b_atomic = 16.
func panelBindings(t *testing.T, cfg core.Config) map[string]*core.ATMatrix {
	t.Helper()
	t.Cleanup(func() { sched.RuntimeFor(cfg.Topology).Close() })
	const n = 200
	g9, err := rmat.Generate(n, 8*n, rmat.Params{A: 0.73, B: 0.09, C: 0.09, D: 0.09}, 21)
	if err != nil {
		t.Fatal(err)
	}
	bind := map[string]*core.ATMatrix{}
	for name, coo := range map[string]*mat.COO{"G9": g9, "x": mat.RandomCOO(rand.New(rand.NewSource(22)), n, 8, 4*n)} {
		m, _, err := core.Partition(coo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		bind[name] = m
	}
	return bind
}

// foldRightToLeft prices and estimates a chain the way runPanel evaluates
// it, by hand: the last map is the panel, every application of maps[i]
// (pows[i] times) is priced against the panel estimated so far.
func foldRightToLeft(maps []*density.Map, pows []int, cfg core.Config) (*density.Map, float64) {
	est, cost := maps[len(maps)-1], 0.0
	for i := len(maps) - 2; i >= 0; i-- {
		for rep := 0; rep < pows[i]; rep++ {
			step, _ := core.EstimatedMultCost(maps[i], est, cfg)
			cost += step
			est = density.EstimateProduct(maps[i], est)
		}
	}
	return est, cost
}

func sameMapBits(a, b *density.Map) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols && a.Block == b.Block &&
		slices.EqualFunc(a.Rho, b.Rho, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestPanelChainsPlannedRightToLeft: a panel chain's reported order, cost
// and estimate are those of the right-to-left evaluation runPanel performs
// — and planning it that way moves no byte of the result. The digests
// (CRC-32 of WriteTo) and the materialized plans were recorded at the
// commit before panel chains got a planner of their own, when they went
// through the association DP like every other chain.
func TestPanelChainsPlannedRightToLeft(t *testing.T) {
	cfg := testCfg()
	bind := panelBindings(t, cfg)
	g9, x := bind["G9"].DensityMapAt(cfg.BAtomic), bind["x"].DensityMapAt(cfg.BAtomic)
	xt := x.Transpose()
	g9x, _ := foldRightToLeft([]*density.Map{g9, x}, []int{1, 1}, cfg)
	for _, c := range []struct {
		src   string
		panel func(root planNode) *chainNode // where the panel chain sits in the plan
		maps  []*density.Map
		pows  []int
		order string // of the panel chain
		// Recorded from the parent commit:
		digest, matDigest uint32
		matOrder          string
		matCost           uint64
	}{
		{"pow(G9,10)*x", nil, []*density.Map{g9, x}, []int{10, 1}, "(pow(G9,10)·x)",
			0x71c0f965, 0xcf67b38c, "(G9·(G9·(G9·(G9·(G9·(G9·(G9·(G9·(G9·(G9·x))))))))))", 0x4124ff0000000000},
		{"x'*G9*x", nil, []*density.Map{xt, g9, x}, []int{1, 1, 1}, "(x'·(G9·x))",
			0xfdddcc81, 0x7e348a38, "((x'·G9)·x)", 0x40f3280000000000},
		{"x'*x*x'*x", nil, []*density.Map{xt, x, xt, x}, []int{1, 1, 1, 1}, "(x'·(x·(x'·x)))",
			0xe6998918, 0xaed6edee, "((x'·x)·(x'·x))", 0x40d9b00000000000},
		{"G9*x*x'*x", nil, []*density.Map{g9, x, xt, x}, []int{1, 1, 1, 1}, "(G9·(x·(x'·x)))",
			0x5b74d7ee, 0x4155a38a, "(G9·(x·(x'·x)))", 0x40f7740000000000},
		// A panel chain as a factor of a wide one: G9·x under the transpose.
		{"G9*x*(G9*x)'", func(root planNode) *chainNode { return root.(*chainNode).factors[2].node.(*transNode).x.(*chainNode) },
			[]*density.Map{g9, x}, []int{1, 1}, "(G9·x)",
			0x1b67bbf1, 0xe1f969c5, "((G9·x)·G9*x')", 0x411a2c0000000000},
	} {
		node, err := Parse(c.src)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := PlanExpr(node, bind, cfg, Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		cn, nested := plan.root.(*chainNode), c.panel != nil
		if nested {
			cn = c.panel(plan.root)
		}
		if cn.fusion != FusionPanel {
			t.Fatalf("%s: fusion %s, want panel", c.src, cn.fusion)
		}
		wantEst, wantCost := foldRightToLeft(c.maps, c.pows, cfg)
		if got := cn.orderString(); got != c.order {
			t.Errorf("%s: order %s, want %s", c.src, got, c.order)
		}
		if !sameMapBits(cn.estMap(), wantEst) {
			t.Errorf("%s: estimate differs from the right-to-left fold", c.src)
		}
		if math.Float64bits(cn.cplan.Cost) != math.Float64bits(wantCost) {
			t.Errorf("%s: cost %v, want the summed step costs %v", c.src, cn.cplan.Cost, wantCost)
		}
		if got := len(cn.stepNames()); got != len(cn.factors)-1 {
			t.Errorf("%s: %d step names for %d factors", c.src, got, len(cn.factors))
		}
		if s := plan.Summary(); !nested && (s.Order != c.order || s.EstimatedCost != wantCost || s.EstimatedNNZ != wantEst.ExpectedNNZ() || s.Fusion != "panel") {
			t.Errorf("%s: summary %+v", c.src, s)
		}
		if nested {
			// The wide chain around it still goes through the DP, over the
			// panel chain's estimate as a leaf.
			want, err := core.OptimizeChainMaps([]*density.Map{g9, x, g9x.Transpose()}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if s := plan.Summary(); s.Order != c.matOrder || s.EstimatedCost != want.Cost {
				t.Errorf("%s: outer chain %s at %v, want %s at %v", c.src, s.Order, s.EstimatedCost, c.matOrder, want.Cost)
			}
		}

		out, _, err := plan.Execute()
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		if got := crc32.ChecksumIEEE(atmBytes(t, out)); got != c.digest {
			t.Errorf("%s: result digest 0x%08x, the parent's is 0x%08x", c.src, got, c.digest)
		}
		if err := Verify(plan.Expr, bind, out, 2, 1); err != nil {
			t.Errorf("%s: %v", c.src, err)
		}

		// Materialize still unrolls the powers and asks the DP.
		out, mplan, _, err := Eval(c.src, bind, cfg, Options{Materialize: true})
		if err != nil {
			t.Fatalf("%s materialized: %v", c.src, err)
		}
		s := mplan.Summary()
		if s.Fusion != "materialized" || s.FusedChains != 0 || s.Order != c.matOrder || math.Float64bits(s.EstimatedCost) != c.matCost {
			t.Errorf("%s materialized: %s, %d fused, order %s at 0x%x; the parent planned %s at 0x%x", c.src, s.Fusion, s.FusedChains, s.Order, math.Float64bits(s.EstimatedCost), c.matOrder, c.matCost)
		}
		if got := crc32.ChecksumIEEE(atmBytes(t, out)); got != c.matDigest {
			t.Errorf("%s materialized: result digest 0x%08x, the parent's is 0x%08x", c.src, got, c.matDigest)
		}
	}
}

// TestPanelPlanHoldsEstimateAfterCap: a huge exponent plans in bounded
// time — the estimate is held after powEstCap applications and the rest
// are priced at the last one's cost.
func TestPanelPlanHoldsEstimateAfterCap(t *testing.T) {
	cfg := testCfg()
	bind := panelBindings(t, cfg)
	g9, x := bind["G9"].DensityMapAt(cfg.BAtomic), bind["x"].DensityMapAt(cfg.BAtomic)
	node, err := Parse("pow(G9,100000)*x")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanExpr(node, bind, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	est, cost := foldRightToLeft([]*density.Map{g9, x}, []int{powEstCap - 1, 1}, cfg)
	last, est := core.EstimatedMultCost(g9, est, cfg)
	for rep := powEstCap - 1; rep < 100000; rep++ {
		cost += last
	}
	cn := plan.root.(*chainNode)
	if !sameMapBits(cn.estMap(), est) || cn.cplan.Cost != cost {
		t.Errorf("cost %v, want %v (estimate held after %d applications)", cn.cplan.Cost, cost, powEstCap)
	}
}

// TestRowStreamGateVerdictUnchanged: the gate prices the left-associated
// order from the maps the cost function returns; its verdict is the one
// separate estimate calls give.
func TestRowStreamGateVerdictUnchanged(t *testing.T) {
	cfg := testCfg()
	bind := testBindings(t, cfg)
	for _, src := range []string{"A*B*C", "A*A*A", "A*B*C*A*B", "A'*(B+C)*A", "A*x*x'*B*C"} {
		node, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := PlanExpr(node, bind, cfg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		cn := plan.root.(*chainNode)
		leftCost := 0.0
		acc := cn.factors[0].node.estMap()
		for _, f := range cn.factors[1:] {
			step, _ := core.EstimatedMultCost(acc, f.node.estMap(), cfg)
			leftCost += step
			acc = density.EstimateProduct(acc, f.node.estMap())
		}
		want := FusionNone
		if leftCost <= fuseCostSlack*cn.cplan.Cost {
			want = FusionRowStream
		}
		if cn.fusion != want {
			t.Errorf("%s: gate chose %s, separate estimates give %s (left %v, DP %v)", src, cn.fusion, want, leftCost, cn.cplan.Cost)
		}
	}
}
