package core

import "atmatrix/internal/mat"

// This file rounds out the AT MATRIX operator surface beyond
// multiplication: transposition and re-partitioning (compaction) of
// multiplication results.

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
		out.Tiles = append(out.Tiles, nt)
	}
	return out
}

// Repartition rebuilds the AT MATRIX with the full quadtree partitioning —
// useful to compact a multiplication result (whose tiles follow the
// operand band grid) into the optimal adaptive layout before it enters
// further multiplications, and cheap enough to serve as a deep copy. The
// rows are gathered straight out of the tiles (rowGatherer); the result
// serializes to the bytes partitioning a.ToCOO() gives.
func (a *ATMatrix) Repartition(cfg Config) (*ATMatrix, *PartitionStats, error) {
	return buildLayout(a.Rows, a.Cols, cfg, (*partitioner).quadtree, func() (*mat.CSR, error) {
		return stageRows(nil, cfg, 0, a.Rows, a.Cols, a, a.rowGatherer())
	})
}
