package core

import (
	"fmt"

	"atmatrix/internal/mat"
)

// Add computes αA + βB over two AT MATRICES of the same shape. The rows of
// both operands are gathered and summed into one stage (stageSum), which
// runs through the full quadtree pipeline, so the result's physical layout
// reflects the combined topology (summed regions can cross the density
// turnaround in either direction). Scalar weights support the common
// αA + βB update patterns of iterative solvers.
func Add(a, b *ATMatrix, alpha, beta float64, cfg Config) (*ATMatrix, error) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return nil, fmt.Errorf("core: Add shape mismatch: %d×%d vs %d×%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out, _, err := buildLayout(a.Rows, a.Cols, cfg, (*partitioner).quadtree, staged(func() (*mat.CSR, error) { return stageSum(a, b, alpha, beta, cfg) }))
	return out, err
}

// Scale multiplies every stored value by s in place, preserving the tile
// structure (density is unchanged except when s == 0). The column views of
// the operand index hold copies of the old values, so they are dropped.
func (a *ATMatrix) Scale(s float64) {
	for _, t := range a.Tiles {
		if t.Kind == mat.DenseKind {
			t.D.Scale(s)
		} else {
			t.Sp.Scale(s)
		}
	}
	a.dropViews()
}
