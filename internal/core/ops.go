package core

import (
	"fmt"

	"atmatrix/internal/mat"
	"atmatrix/internal/sched"
)

// This file rounds out the AT MATRIX operator surface beyond
// multiplication: transposition, tiled matrix-vector multiplication, and
// re-partitioning (compaction) of multiplication results.

// Transpose returns Aᵀ as an AT MATRIX. Each tile is transposed in place
// of its mirrored bounding box; the tile kinds are preserved (density is
// invariant under transposition). Tile homes follow the new tile-rows, by
// the configuration's one placement rule.
func (a *ATMatrix) Transpose(cfg Config) *ATMatrix {
	out := newATMatrix(a.Cols, a.Rows, a.BAtomic)
	for _, t := range a.Tiles {
		nt := &Tile{
			Row0: t.Col0, Col0: t.Row0,
			Rows: t.Cols, Cols: t.Rows,
			Kind: t.Kind, NNZ: t.NNZ,
			Home: cfg.HomeOfRow(t.Col0),
		}
		if t.Kind == mat.DenseKind {
			nt.D = t.D.Transpose()
		} else {
			nt.Sp = t.Sp.Transpose()
		}
		out.addTile(nt)
	}
	return out
}

// MatVec computes y = A·x over the tiles — the classical tiled SpMV layout
// the paper's related work (Vuduc) studies.
func (a *ATMatrix) MatVec(x []float64, cfg Config) ([]float64, error) {
	if len(x) != a.Cols {
		return nil, fmt.Errorf("core: MatVec dimension mismatch: %d columns, %d vector entries", a.Cols, len(x))
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	y := make([]float64, a.Rows)
	// Tiles in one tile-row share rows of y, so the unit of work is the row
	// band: one item per band, run where the band's tiles live.
	bands := a.RowBands()
	_, err := RunHomed(nil, cfg, 0, len(bands),
		func(i int) int { return bands[i].Lo },
		func(team *sched.Team, i int) {
			band := bands[i]
			tiles := a.tilesInRowBand(band)
			team.ParallelRows(band.Len(), func(lo, hi, _ int) {
				for _, t := range tiles {
					tileMatVecRows(t, x, y, band.Lo+lo, band.Lo+hi)
				}
			})
		})
	if err != nil {
		return nil, err
	}
	return y, nil
}

// tileMatVecRows accumulates rows [r0, r1) (matrix coordinates) of one
// tile's contribution into y.
func tileMatVecRows(t *Tile, x, y []float64, r0, r1 int) {
	lo, hi := r0-t.Row0, r1-t.Row0
	if lo < 0 {
		lo = 0
	}
	if hi > t.Rows {
		hi = t.Rows
	}
	if t.Kind == mat.DenseKind {
		for r := lo; r < hi; r++ {
			row := t.D.RowSlice(r)
			var s float64
			for c, v := range row {
				s += v * x[t.Col0+c]
			}
			y[t.Row0+r] += s
		}
		return
	}
	for r := lo; r < hi; r++ {
		plo, phi := t.Sp.RowRange(r)
		var s float64
		for p := plo; p < phi; p++ {
			s += t.Sp.Val[p] * x[t.Col0+int(t.Sp.ColIdx[p])]
		}
		y[t.Row0+r] += s
	}
}

// Repartition rebuilds the AT MATRIX with the full quadtree partitioning —
// useful to compact a multiplication result (whose tiles follow the
// operand band grid) into the optimal adaptive layout before it enters
// further multiplications, and cheap enough to serve as a deep copy. The
// rows are gathered straight out of the tiles (rowGatherer); the result
// serializes to the bytes partitioning a.ToCOO() gives.
func (a *ATMatrix) Repartition(cfg Config) (*ATMatrix, *PartitionStats, error) {
	return buildLayout(a.Rows, a.Cols, cfg, (*partitioner).quadtree, func() (*mat.CSR, error) {
		return stageBlocks(a.Rows, a.Cols, cfg, a.rowGatherer())
	})
}
