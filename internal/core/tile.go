package core

import (
	"fmt"

	"atmatrix/internal/kernels"
	"atmatrix/internal/mat"
	"atmatrix/internal/numa"
)

// Tile is one physical tile of an AT MATRIX: the bounding box
// [Row0, Row0+Rows) × [Col0, Col0+Cols) in matrix coordinates, stored
// either as CSR (sparse) or as a row-major array (dense) with coordinates
// rebased to the tile origin. Tiles are adaptive: their size varies
// between one atomic block and the maximum tile sizes of Eqs. 1–2.
type Tile struct {
	Row0, Col0 int
	Rows, Cols int
	Kind       mat.Kind
	// Sp holds the CSR payload when Kind == mat.Sparse.
	Sp *mat.CSR
	// D holds the dense payload when Kind == mat.DenseKind.
	D *mat.Dense
	// NNZ caches the number of structural non-zeros in the tile.
	NNZ int64
	// Home is the simulated NUMA node the tile's memory lives on.
	Home numa.Node
}

// Density returns the tile's population density.
func (t *Tile) Density() float64 { return mat.Density(t.NNZ, t.Rows, t.Cols) }

// Bytes returns the tile's memory footprint with the paper's element-size
// accounting (S_sp = 16 per sparse element, S_d = 8 per dense cell).
func (t *Tile) Bytes() int64 {
	if t.Kind == mat.DenseKind {
		return mat.DenseBytes(t.Rows, t.Cols)
	}
	return mat.SparseBytes(t.NNZ)
}

// At returns the element at matrix coordinates (r, c), which must lie
// inside the tile.
func (t *Tile) At(r, c int) float64 {
	lr, lc := r-t.Row0, c-t.Col0
	if lr < 0 || lr >= t.Rows || lc < 0 || lc >= t.Cols {
		panic(fmt.Sprintf("core: coordinate (%d,%d) outside tile [%d+%d,%d+%d]", r, c, t.Row0, t.Rows, t.Col0, t.Cols))
	}
	if t.Kind == mat.DenseKind {
		return t.D.At(lr, lc)
	}
	return t.Sp.At(lr, lc)
}

// Validate checks the tile's structural invariants.
func (t *Tile) Validate() error {
	if t.Rows <= 0 || t.Cols <= 0 || t.Row0 < 0 || t.Col0 < 0 {
		return fmt.Errorf("core: tile with degenerate bounds [%d+%d,%d+%d]", t.Row0, t.Rows, t.Col0, t.Cols)
	}
	switch t.Kind {
	case mat.DenseKind:
		if t.D == nil || t.Sp != nil {
			return fmt.Errorf("core: dense tile with wrong payload")
		}
		if t.D.Rows != t.Rows || t.D.Cols != t.Cols {
			return fmt.Errorf("core: dense tile payload %d×%d does not match bounds %d×%d", t.D.Rows, t.D.Cols, t.Rows, t.Cols)
		}
	case mat.Sparse:
		if t.Sp == nil || t.D != nil {
			return fmt.Errorf("core: sparse tile with wrong payload")
		}
		if t.Sp.Rows != t.Rows || t.Sp.Cols != t.Cols {
			return fmt.Errorf("core: sparse tile payload %d×%d does not match bounds %d×%d", t.Sp.Rows, t.Sp.Cols, t.Rows, t.Cols)
		}
		if t.Sp.NNZ() != t.NNZ {
			return fmt.Errorf("core: sparse tile nnz cache %d != payload %d", t.NNZ, t.Sp.NNZ())
		}
		if err := t.Sp.Validate(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("core: unknown tile kind %d", t.Kind)
	}
	return nil
}

// window returns the tile content restricted to tile-local rows [r0,r1) ×
// cols [c0,c1) as kernel operands: a CSRWin for sparse tiles or a shared-
// storage dense window (by value, so the caller embeds the header without
// an allocation) for dense tiles.
func (t *Tile) window(r0, r1, c0, c1 int) (kernels.CSRWin, mat.Dense) {
	if t.Kind == mat.DenseKind {
		return kernels.CSRWin{}, t.D.View(r0, r1, c0, c1)
	}
	return kernels.CSRWin{M: t.Sp, Row0: r0, Col0: c0, Rows: r1 - r0, Cols: c1 - c0}, mat.Dense{}
}
