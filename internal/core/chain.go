package core

import (
	"fmt"
	"time"

	"atmatrix/internal/density"
	"atmatrix/internal/mat"
)

// This file implements cost-based sparse matrix chain multiplication in
// the spirit of SpMacho (Kernert, Köhler, Lehner — EDBT 2015), the
// paper's prior work that contributes the density estimator and the
// eightfold cost model reused by ATMULT (§III-C/D). The introduction of
// the ICDE paper motivates AT MATRIX precisely with the observation that
// a fixed physical organization "has a negative impact on the
// performance, e.g. as observed for sparse matrix chain multiplications
// [9]": the best multiplication order of A1·A2·…·An depends on the
// operand densities, which must be *propagated* through intermediate
// results rather than assumed.
//
// MultiplyChainOpt runs the classical matrix-chain dynamic program, but with
// the cost of each candidate product taken from the kernel cost model
// evaluated at the *estimated* intermediate densities (density maps are
// propagated with the SpMacho product estimator), then executes the
// optimal parenthesization with ATMULT.

// ChainPlan describes the chosen parenthesization and its predicted cost.
type ChainPlan struct {
	// Order holds the multiplication steps as index pairs into the
	// original chain: step {i, j} multiplies the current results rooted
	// at positions i and j (j = i+1 subtree).
	Expression string
	Cost       float64
	// splits[i][j] is the optimal split point for the subchain [i, j].
	splits [][]int
	// maps[i][j] is the estimated density map of the subchain product
	// [i, j]; maps[i][i] is the leaf map the DP ran over.
	maps [][]*density.Map
	n    int
}

// Len returns the number of leaf operands the plan covers.
func (p *ChainPlan) Len() int { return p.n }

// Steps returns the multiplication steps of the plan in execution
// (post-) order as (i, k, j) triples: step t multiplies the subchain
// products [i, k] and [k+1, j]. A single-operand plan has no steps.
func (p *ChainPlan) Steps() [][3]int {
	var out [][3]int
	var rec func(i, j int)
	rec = func(i, j int) {
		if i == j {
			return
		}
		k := p.splits[i][j]
		rec(i, k)
		rec(k+1, j)
		out = append(out, [3]int{i, k, j})
	}
	if p.n > 1 {
		rec(0, p.n-1)
	}
	return out
}

// EstMap returns the estimated density map of the subchain product [i, j]
// (nil when the plan holds none for it: a one-order plan estimates only
// its suffixes [i, n-1] or its prefixes [0, j]).
func (p *ChainPlan) EstMap(i, j int) *density.Map {
	if p.maps == nil {
		return nil
	}
	return p.maps[i][j]
}

// ChainStep summarizes one executed multiplication step of a chain: the
// sub-expression it computed, the shape and fill of its (intermediate or
// final) result, and its wall time. It is what the serving layer exposes
// to clients, so the fields marshal to JSON.
type ChainStep struct {
	Expr    string        `json:"expr"`
	Rows    int           `json:"rows"`
	Cols    int           `json:"cols"`
	NNZ     int64         `json:"nnz"`
	Bytes   int64         `json:"bytes"`
	Density float64       `json:"density"`
	Wall    time.Duration `json:"wall_ns"`
	// Kernels summarizes the sparse×sparse kernel routing of the step
	// ("gustavson×12 outer×3"), empty for steps without such contributions.
	Kernels string `json:"kernels,omitempty"`
}

// ChainStats aggregates the execution of a chain plan.
type ChainStats struct {
	Plan       *ChainPlan
	Steps      int
	TotalWall  time.Duration
	StepStats  []*MultStats
	StepInfos  []ChainStep
	Partitions int
	// PeakIntermediateBytes is the high-water mark of intermediate result
	// bytes alive at once during execution (the final result and the
	// operands themselves excluded) — the quantity fused execution in
	// internal/expr competes against.
	PeakIntermediateBytes int64
}

// OptimizeChain computes the cost-optimal multiplication order for the
// chain of AT MATRICES using dynamic programming over the estimated
// densities.
func OptimizeChain(chain []*ATMatrix, cfg Config) (*ChainPlan, error) {
	n := len(chain)
	if n == 0 {
		return nil, fmt.Errorf("core: empty chain")
	}
	for i := 1; i < n; i++ {
		if chain[i-1].Cols != chain[i].Rows {
			return nil, fmt.Errorf("core: chain dimension mismatch between operand %d (%d×%d) and %d (%d×%d)",
				i-1, chain[i-1].Rows, chain[i-1].Cols, i, chain[i].Rows, chain[i].Cols)
		}
		if chain[i].BAtomic != chain[0].BAtomic {
			return nil, fmt.Errorf("core: chain operand %d has block size %d, want %d", i, chain[i].BAtomic, chain[0].BAtomic)
		}
	}
	// Leaf density maps on a coarse shared grid so the DP stays cheap for
	// long chains.
	block := EstBlock(chain, cfg)
	leaves := make([]*density.Map, n)
	for i := range chain {
		leaves[i] = chain[i].DensityMapAt(block)
	}
	return OptimizeChainMaps(leaves, cfg)
}

// OptimizeChainMaps runs the association-order dynamic program directly
// over leaf density maps, without needing the operand matrices. This is
// the planning core shared with internal/expr, where chain leaves may be
// synthetic (transposed or summed maps of sub-expressions) rather than
// catalog matrices.
func OptimizeChainMaps(leaves []*density.Map, cfg Config) (*ChainPlan, error) {
	n := len(leaves)
	if n == 0 {
		return nil, fmt.Errorf("core: empty chain")
	}
	for i := 1; i < n; i++ {
		if leaves[i-1].Cols != leaves[i].Rows {
			return nil, fmt.Errorf("core: chain dimension mismatch between operand %d (%d×%d) and %d (%d×%d)",
				i-1, leaves[i-1].Rows, leaves[i-1].Cols, i, leaves[i].Rows, leaves[i].Cols)
		}
		if leaves[i].Block != leaves[0].Block {
			return nil, fmt.Errorf("core: chain operand %d has estimation block %d, want %d", i, leaves[i].Block, leaves[0].Block)
		}
	}
	maps := make([][]*density.Map, n)
	cost := make([][]float64, n)
	splits := make([][]int, n)
	for i := 0; i < n; i++ {
		maps[i] = make([]*density.Map, n)
		cost[i] = make([]float64, n)
		splits[i] = make([]int, n)
		maps[i][i] = leaves[i]
	}
	if n == 1 {
		return &ChainPlan{Expression: "A0", maps: maps, n: 1}, nil
	}
	for length := 2; length <= n; length++ {
		for i := 0; i+length-1 < n; i++ {
			j := i + length - 1
			best := -1.0
			bestK := i
			var bestMap *density.Map
			for k := i; k < j; k++ {
				stepCost, est := EstimatedMultCost(maps[i][k], maps[k+1][j], cfg)
				total := cost[i][k] + cost[k+1][j] + stepCost
				if best < 0 || total < best {
					best = total
					bestK = k
					bestMap = est
				}
			}
			cost[i][j] = best
			splits[i][j] = bestK
			maps[i][j] = bestMap
		}
	}
	plan := &ChainPlan{Cost: cost[0][n-1], splits: splits, maps: maps, n: n}
	plan.Expression = plan.render(0, n-1)
	return plan, nil
}

// EstBlock picks the density-estimation grid a chain or expression over ms
// shares: the smallest power-of-two multiple of b_atomic keeping every
// matrix's grid at or under 2^12 cells, coarse enough that the O(n³) DP
// stays negligible even over full maps, whose estimations cost O(grid³).
func EstBlock(ms []*ATMatrix, cfg Config) int {
	const cap = 1 << 12
	block := cfg.BAtomic
	for {
		ok := true
		for _, m := range ms {
			if cells(m.Rows, m.Cols, block) > cap {
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

// RightToLeftPlan is the plan of a chain whose executor runs it in one
// order only — A0·(A1·(…·An-1)) — and has priced that order itself: cost is
// its summed step costs and suffix[i] the estimated map of Ai·…·An-1
// (suffix[n-1] the last operand's own), which EstMap(i, n-1) returns.
func RightToLeftPlan(suffix []*density.Map, cost float64) *ChainPlan {
	return oneOrderPlan(suffix, cost, true)
}

// LeftToRightPlan is the plan of a chain whose executor runs it in the
// other order only — ((A0·A1)·…)·An-1: cost is its summed step costs and
// prefix[j] the estimated map of A0·…·Aj (prefix[0] the first operand's
// own), which EstMap(0, j) returns.
func LeftToRightPlan(prefix []*density.Map, cost float64) *ChainPlan {
	return oneOrderPlan(prefix, cost, false)
}

// oneOrderPlan builds the plan of a chain associated entirely to one side
// from the maps of its suffixes (rightToLeft) or of its prefixes.
func oneOrderPlan(ends []*density.Map, cost float64, rightToLeft bool) *ChainPlan {
	n := len(ends)
	p := &ChainPlan{Cost: cost, maps: make([][]*density.Map, n), splits: make([][]int, n), n: n}
	mapRows, splitRows := make([]*density.Map, n*n), make([]int, n*n)
	for i := range p.maps {
		p.maps[i], p.splits[i] = mapRows[i*n:(i+1)*n], splitRows[i*n:(i+1)*n]
		for j := i + 1; j < n; j++ {
			p.splits[i][j] = j - 1
			if rightToLeft {
				p.splits[i][j] = i
			}
		}
	}
	for i, m := range ends {
		if rightToLeft {
			p.maps[i][n-1] = m
		} else {
			p.maps[0][i] = m
		}
	}
	p.Expression = p.render(0, n-1)
	return p
}

// EstimatedMultCost evaluates the cost model for one candidate product at
// the map-level average densities, with the target kind picked by the
// write threshold. Pricing a product needs its estimated density map, and
// whoever prices one goes on to multiply by it — the DP, and internal/expr
// when it prices the one order a fused executor can run — so the map is
// returned with the cost rather than estimated twice.
func EstimatedMultCost(a, b *density.Map, cfg Config) (float64, *density.Map) {
	rhoA := mapMeanDensity(a)
	rhoB := mapMeanDensity(b)
	est := density.EstimateProduct(a, b)
	rhoC := mapMeanDensity(est)
	kindA := kindFor(rhoA, cfg.RhoRead)
	kindB := kindFor(rhoB, cfg.RhoRead)
	kindC := kindFor(rhoC, cfg.RhoWrite)
	return cfg.Cost.Mult(kindA, kindB, kindC, a.Rows, a.Cols, b.Cols, rhoA, rhoB, rhoC), est
}

// kindFor classifies a density against a threshold.
func kindFor(rho, threshold float64) mat.Kind {
	if rho >= threshold {
		return mat.DenseKind
	}
	return mat.Sparse
}

func mapMeanDensity(m *density.Map) float64 {
	var wsum, asum float64
	for i := 0; i < m.BR; i++ {
		for j := 0; j < m.BC; j++ {
			area := float64(m.CellArea(i, j))
			wsum += m.At(i, j) * area
			asum += area
		}
	}
	if asum == 0 {
		return 0
	}
	return wsum / asum
}

func (p *ChainPlan) render(i, j int) string {
	if i == j {
		return fmt.Sprintf("A%d", i)
	}
	k := p.splits[i][j]
	return "(" + p.render(i, k) + "·" + p.render(k+1, j) + ")"
}

// MultiplyChainOpt optimizes and executes A0·A1·…·An-1 with ATMULT,
// repartitioning intermediates so later steps see adaptive layouts. opts
// applies to every step; in particular opts.Ctx cancels the chain between
// (and inside) the individual ATMULT steps.
func MultiplyChainOpt(chain []*ATMatrix, cfg Config, opts MultOptions) (*ATMatrix, *ChainStats, error) {
	plan, err := OptimizeChain(chain, cfg)
	if err != nil {
		return nil, nil, err
	}
	return ExecuteChain(chain, plan, cfg, opts)
}

// ExecuteChain multiplies the chain in the association order of a plan
// made for it — by OptimizeChain, or by OptimizeChainMaps over estimated
// maps of operands that did not exist yet when the order was chosen and
// reported.
func ExecuteChain(chain []*ATMatrix, plan *ChainPlan, cfg Config, opts MultOptions) (*ATMatrix, *ChainStats, error) {
	if plan.n != len(chain) {
		return nil, nil, fmt.Errorf("core: chain plan covers %d operands, chain has %d", plan.n, len(chain))
	}
	stats := &ChainStats{Plan: plan}
	t0 := time.Now()
	var live int64
	result, err := executeChain(chain, plan, cfg, opts, 0, len(chain)-1, stats, &live)
	if err != nil {
		return nil, nil, err
	}
	stats.TotalWall = time.Since(t0)
	return result, stats, nil
}

// executeChain evaluates the subchain [i, j]. live tracks the bytes of
// intermediate results currently alive, so stats can record the high-water
// mark fused execution competes against.
func executeChain(chain []*ATMatrix, plan *ChainPlan, cfg Config, opts MultOptions, i, j int, stats *ChainStats, live *int64) (*ATMatrix, error) {
	if i == j {
		return chain[i], nil
	}
	k := plan.splits[i][j]
	left, err := executeChain(chain, plan, cfg, opts, i, k, stats, live)
	if err != nil {
		return nil, err
	}
	right, err := executeChain(chain, plan, cfg, opts, k+1, j, stats, live)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	out, mstats, err := MultiplyOpt(left, right, cfg, opts)
	if err != nil {
		return nil, err
	}
	stats.Steps++
	stats.StepStats = append(stats.StepStats, mstats)
	// Compact intermediates that feed further multiplications: the band-
	// grid tiling of a result is legal input but the adaptive layout
	// multiplies better (and this is exactly the "dynamic rewrite"
	// database analogy of the paper's intro).
	isRoot := i == 0 && j == plan.n-1
	if !isRoot {
		band := out.Bytes()
		re, _, err := out.Repartition(cfg)
		if err != nil {
			return nil, err
		}
		stats.Partitions++
		// The compaction transiently holds both layouts on top of whatever
		// inputs are still live — that allocation spike is part of the
		// materializing executor's real footprint, so it counts toward the
		// high-water mark.
		if spike := *live + band + re.Bytes(); spike > stats.PeakIntermediateBytes {
			stats.PeakIntermediateBytes = spike
		}
		out = re
	}
	// Intermediate-byte accounting: this step's result goes live (unless it
	// is the final product), while consumed intermediate inputs die. The
	// high-water mark is sampled while the new result and any still-live
	// inputs coexist — exactly the allocation pressure a materializing
	// executor pays.
	if !isRoot {
		*live += out.Bytes()
	}
	if *live > stats.PeakIntermediateBytes {
		stats.PeakIntermediateBytes = *live
	}
	if i != k { // left input was an intermediate, now dead
		*live -= left.Bytes()
	}
	if k+1 != j { // right input was an intermediate, now dead
		*live -= right.Bytes()
	}
	nnz := out.NNZ()
	kernels := ""
	gust, outer := mstats.GustavsonKernelCalls, mstats.OuterKernelCalls
	if gust > 0 || outer > 0 {
		kernels = fmt.Sprintf("gustavson×%d outer×%d", gust, outer)
	}
	stats.StepInfos = append(stats.StepInfos, ChainStep{
		Expr:    plan.render(i, j),
		Rows:    out.Rows,
		Cols:    out.Cols,
		NNZ:     nnz,
		Bytes:   out.Bytes(),
		Density: float64(nnz) / (float64(out.Rows) * float64(out.Cols)),
		Wall:    time.Since(t0),
		Kernels: kernels,
	})
	return out, nil
}
