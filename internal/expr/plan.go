package expr

import (
	"fmt"
	"math"
	"time"

	"atmatrix/internal/core"
	"atmatrix/internal/density"
	"atmatrix/internal/faultinject"
)

// The planner lowers a parsed expression to an executable plan tree. Mul
// chains are the interesting case: the association order comes from the
// same density-propagating dynamic program that core.OptimizeChain runs
// (generalized here to synthetic leaves — transposed sub-expressions,
// pow() factors, nested sums — via core.OptimizeChainMaps), and each chain
// additionally picks a *fusion strategy*:
//
//   - FusionPanel: the rightmost factor is skinny (≤ DefaultPanelMaxWidth
//     columns), so the whole chain evaluates right-to-left as a dense
//     n×w panel streamed through the operand tiles. Two flat buffers are
//     double-buffered across steps — pow(A,k)·x runs k applications with
//     zero per-step allocation — so the peak intermediate footprint is
//     2·maxRows·w·8 bytes regardless of chain length or k. The chain is
//     planned in that order too (planPanel): there is no association to
//     choose, and no power of A to estimate that is never formed.
//   - FusionRowStream: ≥ 3 wide factors. Result rows are produced one at
//     a time by chained Gustavson passes (two ping-pong SPAs per worker),
//     so no intermediate matrix is ever materialized or repartitioned.
//     Row streaming is inherently left-associated, so it is only chosen
//     when the cost model prices the left-associated order within
//     fuseCostSlack of the DP optimum.
//   - FusionNone: per-step materialized execution through
//     core.MultiplyChainOpt in DP order (also the explicit baseline the
//     bench-eval target compares fusion against).

// DefaultPanelMaxWidth is the widest right-end factor the planner will
// stream as a dense panel. 32 columns × 8 bytes = 256 B per row keeps a
// panel row band well inside the LLC alongside the operand tiles.
const DefaultPanelMaxWidth = 32

// fuseCostSlack bounds how much worse (by the kernel cost model) the
// left-associated order may be before row-streaming fusion is abandoned
// for materialized DP-order execution. Fusion saves every intermediate's
// materialization and repartition, which the flop-level cost model does
// not see, hence the allowance above 1.0.
const fuseCostSlack = 1.5

// powEstCap bounds the number of density-map products used to estimate
// the fill of pow(A,k), or of A applied k times to a panel: the estimate
// converges quickly (it is monotone non-decreasing and bounded by 1), so
// large exponents stop early.
const powEstCap = 64

// maxPowExpand bounds the exponent up to which a pow() factor inside a
// materialized chain is unrolled into repeated chain leaves (keeping
// intermediates skinny when the chain end is skinny) instead of being
// materialized by repeated squaring-free multiplication.
const maxPowExpand = 64

// Fusion names the execution strategy of one multiplication chain.
type Fusion int

const (
	FusionNone Fusion = iota
	FusionPanel
	FusionRowStream
)

func (f Fusion) String() string {
	switch f {
	case FusionPanel:
		return "panel"
	case FusionRowStream:
		return "row-stream"
	default:
		return "materialized"
	}
}

// Options tunes planning and execution.
type Options struct {
	// Iterations, when positive, overrides the exponent of every pow()
	// node — the HTTP "iterations" knob.
	Iterations int
	// Materialize disables fusion: every chain executes per-step through
	// core.MultiplyChainOpt. The benchmark baseline.
	Materialize bool
	// Mult carries the per-step multiplication options (context,
	// watchdog, SpGEMM policy) for materialized steps; fused stages honor
	// Mult.Ctx between stages.
	Mult core.MultOptions
}

// Plan is an executable lowering of one expression against a set of
// bindings.
type Plan struct {
	// Expr is the planned AST (pow exponents already overridden by
	// Options.Iterations).
	Expr       Node
	Rows, Cols int
	PlanTime   time.Duration

	root planNode
	cfg  core.Config
	opts Options
}

// Summary describes the plan for response echoing: what will run, in what
// association order, with which fusion strategy.
type Summary struct {
	Expression    string  `json:"expression"`
	Rows          int     `json:"rows"`
	Cols          int     `json:"cols"`
	Order         string  `json:"order,omitempty"`
	Fusion        string  `json:"fusion"`
	FusedChains   int     `json:"fused_chains"`
	EstimatedCost float64 `json:"estimated_cost,omitempty"`
	EstimatedNNZ  float64 `json:"estimated_nnz,omitempty"`
	PlanTime      int64   `json:"plan_time_ns"`
}

// Summary renders the plan for clients.
func (p *Plan) Summary() Summary {
	s := Summary{
		Expression: p.Expr.String(),
		Rows:       p.Rows,
		Cols:       p.Cols,
		Fusion:     FusionNone.String(),
		PlanTime:   p.PlanTime.Nanoseconds(),
	}
	if est := p.root.estMap(); est != nil {
		s.EstimatedNNZ = est.ExpectedNNZ()
	}
	// Report the outermost chain's decisions; nested chains contribute to
	// the fused count.
	var walkPlan func(n planNode)
	first := true
	walkPlan = func(n planNode) {
		switch v := n.(type) {
		case *chainNode:
			if first {
				first = false
				s.Order = v.orderString()
				s.Fusion = v.fusion.String()
				s.EstimatedCost = v.cplan.Cost
			}
			if v.fusion != FusionNone {
				s.FusedChains++
			}
			for _, f := range v.factors {
				walkPlan(f.node)
			}
		case *addNode:
			walkPlan(v.l)
			walkPlan(v.r)
		case *scaleNode:
			walkPlan(v.x)
		case *transNode:
			walkPlan(v.x)
		case *powNode:
			walkPlan(v.x)
		}
	}
	walkPlan(p.root)
	return s
}

// planNode is one node of the lowered plan tree.
type planNode interface {
	rows() int
	cols() int
	estMap() *density.Map
	label() string
}

type leafNode struct {
	name string
	m    *core.ATMatrix
	est  *density.Map
}

func (n *leafNode) rows() int            { return n.m.Rows }
func (n *leafNode) cols() int            { return n.m.Cols }
func (n *leafNode) estMap() *density.Map { return n.est }
func (n *leafNode) label() string        { return n.name }

// transNode materializes the transpose of its child at execution time.
// (Transposes of chain *leaves* still pay O(nnz) once; the density map is
// transposed for free at plan time.)
type transNode struct {
	x   planNode
	est *density.Map
}

func (n *transNode) rows() int            { return n.x.cols() }
func (n *transNode) cols() int            { return n.x.rows() }
func (n *transNode) estMap() *density.Map { return n.est }
func (n *transNode) label() string        { return n.x.label() + "'" }

type scaleNode struct {
	s float64
	x planNode
}

func (n *scaleNode) rows() int            { return n.x.rows() }
func (n *scaleNode) cols() int            { return n.x.cols() }
func (n *scaleNode) estMap() *density.Map { return n.x.estMap() }
func (n *scaleNode) label() string        { return formatScalar(n.s) + "*" + n.x.label() }

type addNode struct {
	l, r planNode
	sub  bool
	est  *density.Map
}

func (n *addNode) rows() int            { return n.l.rows() }
func (n *addNode) cols() int            { return n.l.cols() }
func (n *addNode) estMap() *density.Map { return n.est }
func (n *addNode) label() string {
	op := " + "
	if n.sub {
		op = " - "
	}
	return "(" + n.l.label() + op + n.r.label() + ")"
}

// powNode materializes X^k by repeated multiplication, double-buffered so
// at most two intermediates are alive. (pow factors inside fused chains
// never reach this path — the panel executor applies X k times instead.)
type powNode struct {
	x   planNode
	k   int
	est *density.Map
}

func (n *powNode) rows() int            { return n.x.rows() }
func (n *powNode) cols() int            { return n.x.cols() }
func (n *powNode) estMap() *density.Map { return n.est }
func (n *powNode) label() string        { return fmt.Sprintf("pow(%s,%d)", n.x.label(), n.k) }

// chainFactor is one factor of a multiplication chain; pow > 1 marks a
// pow() factor whose base is node and which panel fusion applies pow
// times without materializing the power.
type chainFactor struct {
	node planNode
	pow  int
}

func (f chainFactor) rows() int { return f.node.rows() }
func (f chainFactor) cols() int {
	if f.pow > 1 {
		return f.node.rows() // pow bases are square
	}
	return f.node.cols()
}

func (f chainFactor) label() string {
	if f.pow > 1 {
		return fmt.Sprintf("pow(%s,%d)", f.node.label(), f.pow)
	}
	return f.node.label()
}

type chainNode struct {
	factors []chainFactor
	coef    float64
	cplan   *core.ChainPlan
	fusion  Fusion
	est     *density.Map
}

func (n *chainNode) rows() int            { return n.factors[0].rows() }
func (n *chainNode) cols() int            { return n.factors[len(n.factors)-1].cols() }
func (n *chainNode) estMap() *density.Map { return n.est }
func (n *chainNode) label() string {
	s := ""
	if n.coef != 1 {
		s = formatScalar(n.coef) + "*"
	}
	for i, f := range n.factors {
		if i > 0 {
			s += "*"
		}
		s += f.label()
	}
	return s
}

// stepNames renders the plan's multiplication steps, in execution order,
// with the factor labels substituted for the DP's positional names; the
// last one is the whole chain's association order.
func (n *chainNode) stepNames() []string {
	names := map[[2]int]string{}
	for i, f := range n.factors {
		names[[2]int{i, i}] = f.label()
	}
	steps := n.cplan.Steps()
	out := make([]string, len(steps))
	for s, st := range steps {
		i, k, j := st[0], st[1], st[2]
		out[s] = "(" + names[[2]int{i, k}] + "·" + names[[2]int{k + 1, j}] + ")"
		names[[2]int{i, j}] = out[s]
	}
	return out
}

// orderString is the chosen association order of the whole chain.
func (n *chainNode) orderString() string {
	if steps := n.stepNames(); len(steps) > 0 {
		return steps[len(steps)-1]
	}
	return n.factors[0].label()
}

// PlanExpr validates the expression against the bindings and lowers it to
// an executable plan.
func PlanExpr(root Node, bind map[string]*core.ATMatrix, cfg core.Config, opts Options) (*Plan, error) {
	t0 := time.Now()
	if err := faultinject.Do("expr.plan"); err != nil {
		return nil, fmt.Errorf("expr: plan: %w", err)
	}
	if opts.Iterations > 0 {
		root = overridePow(root, opts.Iterations)
	}
	shape := func(name string) (int, int, bool) {
		m, ok := bind[name]
		if !ok {
			return 0, 0, false
		}
		return m.Rows, m.Cols, true
	}
	rows, cols, err := Dims(root, shape)
	if err != nil {
		return nil, err
	}
	for _, name := range Vars(root) {
		if bind[name].BAtomic != cfg.BAtomic {
			return nil, fmt.Errorf("%w: matrix %q has block size %d, want %d", ErrInvalid, name, bind[name].BAtomic, cfg.BAtomic)
		}
	}
	pl := &planner{bind: bind, cfg: cfg, opts: opts, block: estBlock(root, bind, cfg)}
	node, err := pl.lower(root)
	if err != nil {
		return nil, err
	}
	return &Plan{
		Expr: root, Rows: rows, Cols: cols,
		PlanTime: time.Since(t0),
		root:     node, cfg: cfg, opts: opts,
	}, nil
}

// overridePow rebuilds the tree with every pow exponent replaced, the
// "iterations" request knob.
func overridePow(n Node, k int) Node {
	switch v := n.(type) {
	case *Ident:
		return v
	case *Scale:
		return &Scale{S: v.S, X: overridePow(v.X, k)}
	case *Mul:
		fs := make([]Node, len(v.Factors))
		for i, f := range v.Factors {
			fs[i] = overridePow(f, k)
		}
		return &Mul{Factors: fs}
	case *Add:
		return &Add{L: overridePow(v.L, k), R: overridePow(v.R, k), Sub: v.Sub}
	case *Transpose:
		return &Transpose{X: overridePow(v.X, k)}
	case *Pow:
		if k == 1 {
			return overridePow(v.X, k)
		}
		return &Pow{X: overridePow(v.X, k), K: k}
	}
	return n
}

// estBlock picks the shared density-estimation grid: the smallest
// power-of-two multiple of b_atomic keeping every bound matrix's grid at
// or under 2^12 cells, mirroring core's chain estimation grid.
func estBlock(root Node, bind map[string]*core.ATMatrix, cfg core.Config) int {
	const cap = 1 << 12
	block := cfg.BAtomic
	for {
		ok := true
		for _, name := range Vars(root) {
			m := bind[name]
			br := (m.Rows + block - 1) / block
			bc := (m.Cols + block - 1) / block
			if br*bc > cap {
				ok = false
				break
			}
		}
		if ok {
			return block
		}
		block *= 2
	}
}

type planner struct {
	bind  map[string]*core.ATMatrix
	cfg   core.Config
	opts  Options
	block int
}

func (p *planner) lower(n Node) (planNode, error) {
	switch v := n.(type) {
	case *Ident:
		m := p.bind[v.Name]
		return &leafNode{name: v.Name, m: m, est: m.DensityMapAt(p.block)}, nil
	case *Scale:
		x, err := p.lower(v.X)
		if err != nil {
			return nil, err
		}
		return foldScale(v.S, x), nil
	case *Transpose:
		x, err := p.lower(v.X)
		if err != nil {
			return nil, err
		}
		return &transNode{x: x, est: x.estMap().Transpose()}, nil
	case *Add:
		l, err := p.lower(v.L)
		if err != nil {
			return nil, err
		}
		r, err := p.lower(v.R)
		if err != nil {
			return nil, err
		}
		return &addNode{l: l, r: r, sub: v.Sub, est: density.EstimateSum(l.estMap(), r.estMap())}, nil
	case *Pow:
		x, err := p.lower(v.X)
		if err != nil {
			return nil, err
		}
		return &powNode{x: x, k: v.K, est: powEst(x.estMap(), v.K)}, nil
	case *Mul:
		return p.lowerChain(v)
	}
	return nil, fmt.Errorf("expr: cannot plan node %T", n)
}

// foldScale pushes a scalar into a chain coefficient or merges nested
// scales, so materialized chains apply it once at the end and fused chains
// fold it into the seeding pass.
func foldScale(s float64, x planNode) planNode {
	switch v := x.(type) {
	case *chainNode:
		v.coef *= s
		return v
	case *scaleNode:
		return &scaleNode{s: s * v.s, x: v.x}
	}
	return &scaleNode{s: s, x: x}
}

// powEst propagates a density map through k self-products, stopping early
// once the estimate stabilizes.
func powEst(m *density.Map, k int) *density.Map {
	cur := m
	steps := k - 1
	if steps > powEstCap {
		steps = powEstCap
	}
	for i := 0; i < steps; i++ {
		next := density.EstimateProduct(cur, m)
		if density.MaxAbsDiff(next, cur) < 1e-6 {
			return next
		}
		cur = next
	}
	return cur
}

// lowerChain flattens the factors of a product, hoists scalar factors into
// the chain coefficient, and picks the fusion strategy: a skinny right end
// makes a panel chain, planned in its one order; anything else goes through
// the association DP over the factor density maps and the row-stream gate.
func (p *planner) lowerChain(m *Mul) (planNode, error) {
	coef := 1.0
	var factors []chainFactor
	var flatten func(n Node) error
	flatten = func(n Node) error {
		switch v := n.(type) {
		case *Mul:
			for _, f := range v.Factors {
				if err := flatten(f); err != nil {
					return err
				}
			}
			return nil
		case *Scale:
			coef *= v.S
			return flatten(v.X)
		case *Pow:
			x, err := p.lower(v.X)
			if err != nil {
				return err
			}
			factors = append(factors, chainFactor{node: x, pow: v.K})
			return nil
		default:
			x, err := p.lower(n)
			if err != nil {
				return err
			}
			factors = append(factors, chainFactor{node: x})
			return nil
		}
	}
	if err := flatten(m); err != nil {
		return nil, err
	}
	if len(factors) == 1 {
		// A chain that collapsed to one matrix factor (the rest were
		// scalars): no association to plan.
		f := factors[0]
		var node planNode = f.node
		if f.pow > 1 {
			node = &powNode{x: f.node, k: f.pow, est: powEst(f.node.estMap(), f.pow)}
		}
		return foldScale(coef, node), nil
	}

	// Panel fusion keeps pow() factors symbolic (the executor applies the
	// base k times) and has one order to run in; every other strategy
	// first unrolls small exponents into repeated chain leaves, so that
	// the association DP — not a blind materialization of A^k — decides
	// how the power combines with its neighbors. (With a skinny right end
	// the DP associates right-to-left and every intermediate stays skinny;
	// that is the honest materialized baseline for pow(A,k)·x.)
	last := factors[len(factors)-1]
	if !p.opts.Materialize && last.pow <= 1 && last.cols() <= DefaultPanelMaxWidth {
		cplan := p.planPanel(factors)
		return &chainNode{factors: factors, coef: coef, cplan: cplan, fusion: FusionPanel, est: cplan.EstMap(0, len(factors)-1)}, nil
	}
	factors = expandPows(factors)
	leaves := make([]*density.Map, len(factors))
	for i, f := range factors {
		if f.pow > 1 {
			leaves[i] = powEst(f.node.estMap(), f.pow)
		} else {
			leaves[i] = f.node.estMap()
		}
	}
	cplan, err := core.OptimizeChainMaps(leaves, p.cfg)
	if err != nil {
		return nil, err
	}
	cn := &chainNode{factors: factors, coef: coef, cplan: cplan, est: cplan.EstMap(0, len(factors)-1)}
	if !p.opts.Materialize {
		cn.fusion = p.rowStreamGate(cn, leaves)
	}
	return cn, nil
}

// planPanel plans a panel chain in the only order runPanel evaluates it:
// right to left, one application at a time. Each application of factor i
// to the panel estimated so far is priced like any product and replaces
// the estimate, so the chain's cost, estimate and reported order describe
// what runs — a skinny map per step, never a power of a square one. A pow
// factor's estimate is held after powEstCap applications; the rest are
// priced at the last one's cost.
func (p *planner) planPanel(factors []chainFactor) *core.ChainPlan {
	n := len(factors)
	suffix := make([]*density.Map, n)
	est := factors[n-1].node.estMap()
	suffix[n-1] = est
	cost := 0.0
	for i := n - 2; i >= 0; i-- {
		a, step := factors[i].node.estMap(), 0.0
		for rep := 0; rep < max(1, factors[i].pow); rep++ {
			if rep < powEstCap {
				step, est = core.EstimatedMultCost(a, est, p.cfg)
			}
			cost += step
		}
		suffix[i] = est
	}
	return core.RightToLeftPlan(suffix, cost)
}

// expandPows unrolls pow() factors with small exponents into repeated
// chain leaves; exponents above maxPowExpand stay pow factors and are
// materialized by repeated multiplication before the chain runs.
func expandPows(factors []chainFactor) []chainFactor {
	out := make([]chainFactor, 0, len(factors))
	for _, f := range factors {
		if f.pow > 1 && f.pow <= maxPowExpand {
			for i := 0; i < f.pow; i++ {
				out = append(out, chainFactor{node: f.node})
			}
			continue
		}
		out = append(out, f)
	}
	return out
}

// rowStreamGate accepts row-streaming fusion for a wide chain when the
// cost model prices the left-associated order (the only order row
// streaming can run) within fuseCostSlack of the DP optimum. When it does,
// the chain's plan becomes that order at that price, so the reply reports
// what runs.
func (p *planner) rowStreamGate(cn *chainNode, leaves []*density.Map) Fusion {
	if len(cn.factors) < 3 {
		return FusionNone
	}
	for _, f := range cn.factors {
		if f.pow > 1 {
			return FusionNone // huge-exponent pow factor: materialize
		}
	}
	leftCost := 0.0
	prefix := make([]*density.Map, len(leaves))
	prefix[0] = leaves[0]
	for i := 1; i < len(leaves); i++ {
		var step float64
		step, prefix[i] = core.EstimatedMultCost(prefix[i-1], leaves[i], p.cfg)
		leftCost += step
	}
	if leftCost <= fuseCostSlack*cn.cplan.Cost || math.IsNaN(leftCost) {
		cn.cplan = core.LeftToRightPlan(prefix, leftCost)
		return FusionRowStream
	}
	return FusionNone
}
