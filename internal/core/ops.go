package core

import (
	"fmt"

	"atmatrix/internal/mat"
	"atmatrix/internal/numa"
	"atmatrix/internal/sched"
)

// This file rounds out the AT MATRIX operator surface beyond
// multiplication: transposition, tiled matrix-vector multiplication, and
// re-partitioning (compaction) of multiplication results.

// Transpose returns Aᵀ as an AT MATRIX. Each tile is transposed in place
// of its mirrored bounding box; the tile kinds are preserved (density is
// invariant under transposition). Tile homes are re-derived from the new
// tile-rows so the round-robin distribution policy of §III-F still holds;
// the socket count is recovered from the existing home tags.
func (a *ATMatrix) Transpose() *ATMatrix {
	out := newATMatrix(a.Cols, a.Rows, a.BAtomic)
	sockets := 1
	for _, t := range a.Tiles {
		if int(t.Home)+1 > sockets {
			sockets = int(t.Home) + 1
		}
	}
	for _, t := range a.Tiles {
		nt := &Tile{
			Row0: t.Col0, Col0: t.Row0,
			Rows: t.Cols, Cols: t.Rows,
			Kind: t.Kind, NNZ: t.NNZ,
		}
		if t.Kind == mat.DenseKind {
			nt.D = t.D.Transpose()
		} else {
			nt.Sp = t.Sp.Transpose()
		}
		nt.Home = numa.Node((nt.Row0 / a.BAtomic) % sockets)
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
// further multiplications.
func (a *ATMatrix) Repartition(cfg Config) (*ATMatrix, *PartitionStats, error) {
	return Partition(a.ToCOO(), cfg)
}
