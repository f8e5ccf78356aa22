package core

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"atmatrix/internal/density"
	"atmatrix/internal/mat"
	"atmatrix/internal/rmat"
)

func chainOf(t *testing.T, cfg Config, dims []int, dens []float64, seed int64) []*ATMatrix {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([]*ATMatrix, len(dims)-1)
	for i := 0; i+1 < len(dims); i++ {
		m, n := dims[i], dims[i+1]
		nnz := int(dens[i] * float64(m) * float64(n))
		a := mat.RandomCOO(rng, m, n, nnz)
		am, _, err := Partition(a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = am
	}
	return out
}

func TestChainMatchesReference(t *testing.T) {
	cfg := testConfig()
	chain := chainOf(t, cfg, []int{40, 60, 30, 50}, []float64{0.1, 0.2, 0.15}, 111)
	got, stats, err := MultiplyChainOpt(chain, cfg, DefaultMultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Steps != 2 {
		t.Fatalf("3-operand chain ran %d steps, want 2", stats.Steps)
	}
	want := chain[0].ToDense()
	for _, m := range chain[1:] {
		want = mat.MulReference(want, m.ToDense())
	}
	if !got.ToDense().EqualApprox(want, 1e-8) {
		t.Fatal("chain result mismatch")
	}
}

func TestChainSingleOperand(t *testing.T) {
	cfg := testConfig()
	chain := chainOf(t, cfg, []int{30, 30}, []float64{0.1}, 112)
	got, stats, err := MultiplyChainOpt(chain, cfg, DefaultMultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got != chain[0] || stats.Steps != 0 {
		t.Fatal("single-operand chain should return the operand unchanged")
	}
}

func TestChainRejectsBadInput(t *testing.T) {
	cfg := testConfig()
	if _, _, err := MultiplyChainOpt(nil, cfg, DefaultMultOptions()); err == nil {
		t.Fatal("empty chain accepted")
	}
	rng := rand.New(rand.NewSource(113))
	a, _, _ := Partition(mat.RandomCOO(rng, 10, 20, 30), cfg)
	b, _, _ := Partition(mat.RandomCOO(rng, 30, 10, 30), cfg)
	if _, _, err := MultiplyChainOpt([]*ATMatrix{a, b}, cfg, DefaultMultOptions()); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

// TestChainOrderMatters: for a chain (sparse big × sparse big × skinny
// dense), multiplying right-to-left first is drastically cheaper; the
// optimizer must find a right-leaning parenthesization.
func TestChainOrderMatters(t *testing.T) {
	cfg := testConfig()
	// A0: 200×200 sparse, A1: 200×200 sparse, A2: 200×8 skinny.
	chain := chainOf(t, cfg, []int{200, 200, 200, 8}, []float64{0.05, 0.05, 0.3}, 114)
	plan, err := OptimizeChain(chain, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The optimal expression must be A0·(A1·A2): collapsing into the
	// skinny dimension first.
	if plan.Expression != "(A0·(A1·A2))" {
		t.Fatalf("plan = %s, want (A0·(A1·A2))", plan.Expression)
	}
	got, _, err := MultiplyChainOpt(chain, cfg, DefaultMultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := chain[0].ToDense()
	for _, m := range chain[1:] {
		want = mat.MulReference(want, m.ToDense())
	}
	if !got.ToDense().EqualApprox(want, 1e-8) {
		t.Fatal("optimized chain result mismatch")
	}
}

// TestChainPlanCostConsistent: the DP cost of the chosen plan must not
// exceed the cost of the strictly left-to-right evaluation.
func TestChainPlanCostConsistent(t *testing.T) {
	cfg := testConfig()
	chain := chainOf(t, cfg, []int{100, 20, 150, 10, 80}, []float64{0.1, 0.1, 0.1, 0.1}, 115)
	plan, err := OptimizeChain(chain, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Cost <= 0 {
		t.Fatalf("plan cost %g", plan.Cost)
	}
	if !strings.Contains(plan.Expression, "A3") {
		t.Fatalf("expression %q misses operands", plan.Expression)
	}
	// Execute and verify numerically.
	got, stats, err := MultiplyChainOpt(chain, cfg, DefaultMultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Steps != 3 {
		t.Fatalf("4-operand chain ran %d steps", stats.Steps)
	}
	want := chain[0].ToDense()
	for _, m := range chain[1:] {
		want = mat.MulReference(want, m.ToDense())
	}
	if !got.ToDense().EqualApprox(want, 1e-8) {
		t.Fatal("chain result mismatch")
	}
}

func TestChainLong(t *testing.T) {
	cfg := testConfig()
	dims := []int{30, 40, 20, 50, 25, 35, 30}
	dens := []float64{0.2, 0.15, 0.25, 0.1, 0.2, 0.15}
	chain := chainOf(t, cfg, dims, dens, 116)
	got, stats, err := MultiplyChainOpt(chain, cfg, DefaultMultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Steps != len(chain)-1 {
		t.Fatalf("steps %d, want %d", stats.Steps, len(chain)-1)
	}
	if stats.Partitions != stats.Steps-1 {
		t.Fatalf("intermediate repartitions %d, want %d", stats.Partitions, stats.Steps-1)
	}
	want := chain[0].ToDense()
	for _, m := range chain[1:] {
		want = mat.MulReference(want, m.ToDense())
	}
	if !got.ToDense().EqualApprox(want, 1e-7) {
		t.Fatal("long chain mismatch")
	}
}

// refOptimizeChainMaps is the association DP as it stood when pricing a
// candidate and estimating the winner's map were two calls, each running
// the estimator: cost, splits and maps by the same rule, twice the work.
func refOptimizeChainMaps(leaves []*density.Map, cfg Config) *ChainPlan {
	refCost := func(a, b *density.Map) float64 {
		rhoA, rhoB := mapMeanDensity(a), mapMeanDensity(b)
		rhoC := mapMeanDensity(density.EstimateProduct(a, b))
		return cfg.Cost.Mult(kindFor(rhoA, cfg.RhoRead), kindFor(rhoB, cfg.RhoRead), kindFor(rhoC, cfg.RhoWrite), a.Rows, a.Cols, b.Cols, rhoA, rhoB, rhoC)
	}
	n := len(leaves)
	maps := make([][]*density.Map, n)
	cost := make([][]float64, n)
	splits := make([][]int, n)
	for i := 0; i < n; i++ {
		maps[i] = make([]*density.Map, n)
		cost[i] = make([]float64, n)
		splits[i] = make([]int, n)
		maps[i][i] = leaves[i]
	}
	for length := 2; length <= n; length++ {
		for i := 0; i+length-1 < n; i++ {
			j := i + length - 1
			best := -1.0
			bestK := i
			var bestMap *density.Map
			for k := i; k < j; k++ {
				left, right := maps[i][k], maps[k+1][j]
				total := cost[i][k] + cost[k+1][j] + refCost(left, right)
				if best < 0 || total < best {
					best = total
					bestK = k
					bestMap = density.EstimateProduct(left, right)
				}
			}
			cost[i][j] = best
			splits[i][j] = bestK
			maps[i][j] = bestMap
		}
	}
	plan := &ChainPlan{Cost: cost[0][n-1], splits: splits, maps: maps, n: n}
	plan.Expression = plan.render(0, n-1)
	return plan
}

// TestChainDPUnchangedByReturnedEstimate: letting the cost function hand
// back the map it built moves no cost, split or estimate — on the
// benchmark's chain3 (R9·R9·R9), the A·B·C of the eval benchmarks and a
// 5-chain of mixed shapes.
func TestChainDPUnchangedByReturnedEstimate(t *testing.T) {
	part := func(src *mat.COO, cfg Config) *ATMatrix {
		m, _, err := Partition(src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	bench := benchLayoutConfig()
	r9 := part(standIn(t, "R9"), bench)
	params, err := rmat.PaperParams(1)
	if err != nil {
		t.Fatal(err)
	}
	var abc []*ATMatrix
	for seed := int64(40); seed < 43; seed++ {
		coo, err := rmat.Generate(4096, 2*4096, params, seed)
		if err != nil {
			t.Fatal(err)
		}
		abc = append(abc, part(coo, bench))
	}
	small := testConfig()
	for name, c := range map[string]struct {
		chain []*ATMatrix
		cfg   Config
	}{
		"chain3":  {[]*ATMatrix{r9, r9, r9}, bench},
		"A*B*C":   {abc, bench},
		"5-chain": {chainOf(t, small, []int{100, 20, 150, 10, 80, 120}, []float64{0.1, 0.3, 0.02, 0.5, 0.1}, 117), small},
	} {
		block := chainEstBlock(c.chain, c.cfg)
		leaves := make([]*density.Map, len(c.chain))
		for i, m := range c.chain {
			leaves[i] = m.DensityMapAt(block)
		}
		got, err := OptimizeChainMaps(leaves, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := refOptimizeChainMaps(leaves, c.cfg)
		if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) || got.Expression != want.Expression || !slices.Equal(got.Steps(), want.Steps()) {
			t.Errorf("%s: plan %s at %v, reference %s at %v", name, got.Expression, got.Cost, want.Expression, want.Cost)
		}
		n := len(leaves)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				g, w := got.EstMap(i, j), want.EstMap(i, j)
				if !slices.EqualFunc(g.Rho, w.Rho, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
					t.Errorf("%s: estimate of [%d,%d] differs from the reference", name, i, j)
				}
			}
		}
	}
}

// TestRightToLeftPlan: the plan shape a panel executor's pricing is
// reported in.
func TestRightToLeftPlan(t *testing.T) {
	suffix := []*density.Map{density.NewMap(4, 1, 8), density.NewMap(5, 1, 8), density.NewMap(6, 1, 8), density.NewMap(7, 1, 8)}
	plan := RightToLeftPlan(suffix, 42)
	if plan.Expression != "(A0·(A1·(A2·A3)))" || plan.Cost != 42 || plan.Len() != 4 {
		t.Fatalf("plan %s, cost %v, len %d", plan.Expression, plan.Cost, plan.Len())
	}
	if want := [][3]int{{2, 2, 3}, {1, 1, 3}, {0, 0, 3}}; !slices.Equal(plan.Steps(), want) {
		t.Fatalf("steps %v, want %v", plan.Steps(), want)
	}
	for i, m := range suffix {
		if plan.EstMap(i, 3) != m {
			t.Fatalf("EstMap(%d, 3) is not suffix[%d]", i, i)
		}
	}
	if one := RightToLeftPlan(suffix[:1], 0); one.Expression != "A0" || len(one.Steps()) != 0 {
		t.Fatalf("single-operand plan %q with %d steps", one.Expression, len(one.Steps()))
	}
}

// TestLeftToRightPlan: the plan shape a row-streamed chain is reported in.
func TestLeftToRightPlan(t *testing.T) {
	prefix := []*density.Map{density.NewMap(4, 1, 8), density.NewMap(4, 2, 8), density.NewMap(4, 3, 8), density.NewMap(4, 4, 8)}
	plan := LeftToRightPlan(prefix, 42)
	if plan.Expression != "(((A0·A1)·A2)·A3)" || plan.Cost != 42 || plan.Len() != 4 {
		t.Fatalf("plan %s, cost %v, len %d", plan.Expression, plan.Cost, plan.Len())
	}
	if want := [][3]int{{0, 0, 1}, {0, 1, 2}, {0, 2, 3}}; !slices.Equal(plan.Steps(), want) {
		t.Fatalf("steps %v, want %v", plan.Steps(), want)
	}
	for j, m := range prefix {
		if plan.EstMap(0, j) != m {
			t.Fatalf("EstMap(0, %d) is not prefix[%d]", j, j)
		}
	}
}
