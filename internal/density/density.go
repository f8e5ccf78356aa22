// Package density implements block-granular density maps and the
// probability-propagation product estimator of SpMacho (Kernert et al.,
// EDBT 2015), which ATMULT uses for result-density estimation (paper
// §III-D) and for the water-level memory-bounded write threshold (§III-E).
//
// A density map is a coarse grid over the matrix: one cell per logical
// b×b atomic block, holding the block's population density. Within a block
// the density is approximated as uniform — the block is the unit of
// granularity below which no heterogeneity is resolved (paper §II-B).
//
// A Map is a plain dense grid; it carries no index. EstimateProduct builds
// the one it needs — B's non-empty cells per block row — per call, which
// costs one scan of B's grid, and then touches only pairs of non-empty
// cells, so estimating over the almost empty grid of a hypersparse matrix
// costs what its few occupied cells cost.
package density

import (
	"fmt"
	"math"

	"atmatrix/internal/mat"
)

// Map is a block-granular density grid of a rows×cols matrix with logical
// block size Block. Cell (i,j) covers matrix rows [i·Block, min((i+1)·Block,
// rows)) × the analogous column range; edge cells are clipped to the matrix
// bounds, and their density refers to the clipped area.
type Map struct {
	Rows, Cols int // matrix dimensions
	Block      int // atomic block side length b_atomic
	BR, BC     int // grid dimensions: ⌈rows/Block⌉ × ⌈cols/Block⌉
	Rho        []float64
}

// NewMap returns an all-zero density map.
func NewMap(rows, cols, block int) *Map {
	if block <= 0 {
		panic(fmt.Sprintf("density: non-positive block size %d", block))
	}
	br := (rows + block - 1) / block
	bc := (cols + block - 1) / block
	if br == 0 {
		br = 1
	}
	if bc == 0 {
		bc = 1
	}
	return &Map{Rows: rows, Cols: cols, Block: block, BR: br, BC: bc, Rho: make([]float64, br*bc)}
}

// At returns the density of grid cell (i, j).
func (m *Map) At(i, j int) float64 { return m.Rho[i*m.BC+j] }

// Set assigns the density of grid cell (i, j).
func (m *Map) Set(i, j int, rho float64) { m.Rho[i*m.BC+j] = rho }

// CellDims returns the clipped height and width of grid cell (i, j).
func (m *Map) CellDims(i, j int) (h, w int) {
	h = m.Block
	if r := m.Rows - i*m.Block; r < h {
		h = r
	}
	w = m.Block
	if c := m.Cols - j*m.Block; c < w {
		w = c
	}
	if h < 0 {
		h = 0
	}
	if w < 0 {
		w = 0
	}
	return h, w
}

// CellArea returns the number of matrix cells covered by grid cell (i, j).
func (m *Map) CellArea(i, j int) int64 {
	h, w := m.CellDims(i, j)
	return int64(h) * int64(w)
}

// ExpectedNNZ returns the total expected number of non-zeros implied by the
// map: Σ ρ_ij · area_ij.
func (m *Map) ExpectedNNZ() float64 {
	var s float64
	for i := 0; i < m.BR; i++ {
		for j := 0; j < m.BC; j++ {
			s += m.At(i, j) * float64(m.CellArea(i, j))
		}
	}
	return s
}

// FromCOO builds the exact density map of a staging matrix. Duplicate
// coordinates are counted once only if the input is deduplicated; callers
// should Dedup first.
func FromCOO(a *mat.COO, block int) *Map {
	m := NewMap(a.Rows, a.Cols, block)
	cnt := make([]int64, len(m.Rho))
	for _, e := range a.Ent {
		cnt[int(e.Row)/block*m.BC+int(e.Col)/block]++
	}
	m.fromCounts(cnt)
	return m
}

// FromCSR builds the exact density map of a CSR matrix.
func FromCSR(a *mat.CSR, block int) *Map {
	m := NewMap(a.Rows, a.Cols, block)
	cnt := make([]int64, len(m.Rho))
	for r := 0; r < a.Rows; r++ {
		lo, hi := a.RowRange(r)
		base := r / block * m.BC
		for p := lo; p < hi; p++ {
			cnt[base+int(a.ColIdx[p])/block]++
		}
	}
	m.fromCounts(cnt)
	return m
}

// FromDense builds the exact density map of a dense matrix, counting
// stored non-zero values.
func FromDense(a *mat.Dense, block int) *Map {
	m := NewMap(a.Rows, a.Cols, block)
	cnt := make([]int64, len(m.Rho))
	for r := 0; r < a.Rows; r++ {
		row := a.RowSlice(r)
		base := r / block * m.BC
		for c, v := range row {
			if v != 0 {
				cnt[base+c/block]++
			}
		}
	}
	m.fromCounts(cnt)
	return m
}

// Uniform returns a map with a constant density everywhere (the model for
// a plain operand without a measured map, e.g. a full dense matrix with
// rho = 1).
func Uniform(rows, cols, block int, rho float64) *Map {
	m := NewMap(rows, cols, block)
	for i := range m.Rho {
		m.Rho[i] = rho
	}
	return m
}

func (m *Map) fromCounts(cnt []int64) {
	for i := 0; i < m.BR; i++ {
		for j := 0; j < m.BC; j++ {
			area := m.CellArea(i, j)
			if area > 0 {
				m.Rho[i*m.BC+j] = float64(cnt[i*m.BC+j]) / float64(area)
			}
		}
	}
}

// saturatedLog is −56·ln 2, the argument at and below which math.Expm1
// returns exactly −1 (its own "filter out huge argument" threshold): a cell
// whose log-survival sum has got there is ρ̂ = 1 whatever is still added,
// because every further term is ≤ 0.
const saturatedLog = -56 * math.Ln2

// EstimateProduct propagates block densities of A (m×k) and B (k×n)
// through the multiplication and returns the estimated density map of
// C = A·B. Modelling every element as an independent Bernoulli variable
// with its block's density, a C-element in block (i,j) stays zero with
// probability Π over all contraction blocks κ of (1 − ρ^A_iκ·ρ^B_κj)^{w_κ},
// where w_κ is the (clipped) width of contraction block κ. Hence
//
//	ρ̂_ij = 1 − Π_κ (1 − ρ^A_iκ · ρ^B_κj)^{w_κ}.
//
// The product is taken Gustavson-style over block rows: B's non-empty cells
// are indexed per block row once, and each non-empty (i,κ) of A adds
// w_κ·log1p(−ρρ) to the row accumulator of every non-empty (κ,j). The cost
// is two scans of the operand grids plus Σ_κ nnzcol_A(κ)·nnzrow_B(κ) cell
// pairs — the product of the grid dimensions only for full maps, and a few
// hundred pairs for the banded hypersparse operands the paper singles out
// (§IV-D), whose grids are almost empty. κ ascends within every cell's sum
// and a saturated cell (see saturatedLog) is the only one skipped, so the
// result is bit for bit the sum taken cell by cell. Densities are expected
// in [0, 1].
func EstimateProduct(a, b *Map) *Map {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("density: contraction mismatch %d vs %d", a.Cols, b.Rows))
	}
	if a.Block != b.Block {
		panic(fmt.Sprintf("density: block size mismatch %d vs %d", a.Block, b.Block))
	}
	c := NewMap(a.Rows, b.Cols, a.Block)
	// B's non-empty cells: block row κ owns bCol/bRho[bRow[κ]:bRow[κ+1]].
	bRow := make([]int32, b.BR+1)
	bCol := make([]int32, 0, len(b.Rho))
	bRho := make([]float64, 0, len(b.Rho))
	for kb := 0; kb < b.BR; kb++ {
		for j, rho := range b.Rho[kb*b.BC : (kb+1)*b.BC] {
			if rho != 0 {
				bCol, bRho = append(bCol, int32(j)), append(bRho, rho)
			}
		}
		bRow[kb+1] = int32(len(bCol))
	}
	for i := 0; i < c.BR; i++ {
		propagateRow(c.Rho[i*c.BC:(i+1)*c.BC], a, i, bRow, bCol, bRho)
	}
	return c
}

// propagateRow fills block row i of the product estimate: acc arrives zero,
// collects the log-survival sums of the row and leaves as densities.
//
//atlint:hotpath
func propagateRow(acc []float64, a *Map, i int, bRow, bCol []int32, bRho []float64) {
	for kb, ra := range a.Rho[i*a.BC : (i+1)*a.BC] {
		lo, hi := bRow[kb], bRow[kb+1]
		if ra == 0 || lo == hi {
			continue
		}
		_, wk := a.CellDims(i, kb)
		w := float64(wk)
		for p := lo; p < hi; p++ {
			j := bCol[p]
			if acc[j] <= saturatedLog {
				continue
			}
			if pr := ra * bRho[p]; pr >= 1 {
				acc[j] = math.Inf(-1)
			} else {
				acc[j] += w * math.Log1p(-pr)
			}
		}
	}
	for j, logZero := range acc {
		rho := -math.Expm1(logZero)
		if rho == 0 {
			rho = 0 // normalize the -0.0 that -Expm1(0) produces
		}
		acc[j] = rho
	}
}

// Transpose returns the density map of the transposed matrix: cell (i,j)
// of the result carries the density of cell (j,i). Density is invariant
// under transposition, so the expression planner uses this to propagate
// estimated fill through A' leaves without touching the matrix itself.
func (m *Map) Transpose() *Map {
	out := NewMap(m.Cols, m.Rows, m.Block)
	for i := 0; i < m.BR; i++ {
		for j := 0; j < m.BC; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// EstimateSum estimates the density map of A + B under the same
// independence assumption as EstimateProduct: a cell element of the sum is
// zero only when it is zero in both operands (exact cancellation is
// ignored, making the estimate an upper bound), so
//
//	ρ̂_ij = 1 − (1 − ρ^A_ij)·(1 − ρ^B_ij).
func EstimateSum(a, b *Map) *Map {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("density: sum shape mismatch %d×%d vs %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if a.Block != b.Block {
		panic(fmt.Sprintf("density: block size mismatch %d vs %d", a.Block, b.Block))
	}
	c := NewMap(a.Rows, a.Cols, a.Block)
	for i := range c.Rho {
		c.Rho[i] = 1 - (1-a.Rho[i])*(1-b.Rho[i])
	}
	return c
}

// MaxAbsDiff returns the largest absolute per-cell difference between two
// maps of identical grid shape.
func MaxAbsDiff(a, b *Map) float64 {
	if a.BR != b.BR || a.BC != b.BC {
		panic("density: grid shape mismatch")
	}
	var d float64
	for i := range a.Rho {
		if v := math.Abs(a.Rho[i] - b.Rho[i]); v > d {
			d = v
		}
	}
	return d
}

// String renders the map as a compact ASCII grayscale picture, one
// character per cell — the textual analogue of Fig. 2c/2d in the paper.
func (m *Map) String() string {
	const shades = " .:-=+*#%@"
	buf := make([]byte, 0, (m.BC+1)*m.BR)
	for i := 0; i < m.BR; i++ {
		for j := 0; j < m.BC; j++ {
			rho := m.At(i, j)
			idx := int(rho * float64(len(shades)))
			if idx >= len(shades) {
				idx = len(shades) - 1
			}
			if rho > 0 && idx == 0 {
				idx = 1
			}
			buf = append(buf, shades[idx])
		}
		buf = append(buf, '\n')
	}
	return string(buf)
}
