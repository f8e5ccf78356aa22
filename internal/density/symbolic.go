package density

import (
	"fmt"

	"atmatrix/internal/mat"
)

// Symbolic computation of the product structure: the classical SpGEMM
// symbolic phase (Gustavson's algorithm without the value work) computes
// the *exact* non-zero structure counts of C = A·B. The paper deliberately
// replaces it with the probabilistic density-map estimator because "the
// exact non-zero structure can only be found through the actual execution
// of the multiplication" (§III-D) — the symbolic pass costs
// O(flops) = O(N_nz^A · N_nz^B / k) while the estimator is the same
// Gustavson pass over the block grid — at most O(grid³) cell pairs, and
// only the non-empty ones. Both are provided here so the trade-off is
// measurable (BenchmarkAblation_EstimatorVsSymbolic).

// SymbolicNNZ returns the exact per-row non-zero counts of C = A·B and
// their total, without computing any values.
func SymbolicNNZ(a, b *mat.CSR) ([]int64, int64, error) {
	if a.Cols != b.Rows {
		return nil, 0, fmt.Errorf("density: contraction mismatch %d vs %d", a.Cols, b.Rows)
	}
	rowNNZ := make([]int64, a.Rows)
	mark := make([]int32, b.Cols)
	for i := range mark {
		mark[i] = -1
	}
	var total int64
	for i := 0; i < a.Rows; i++ {
		acols, _ := a.Row(i)
		var cnt int64
		for _, k := range acols {
			bcols, _ := b.Row(int(k))
			for _, j := range bcols {
				if mark[j] != int32(i) {
					mark[j] = int32(i)
					cnt++
				}
			}
		}
		rowNNZ[i] = cnt
		total += cnt
	}
	return rowNNZ, total, nil
}

// SymbolicMap computes the exact block-density map of C = A·B — what
// EstimateProduct approximates. It runs the symbolic phase with per-block
// bucketing.
func SymbolicMap(a, b *mat.CSR, block int) (*Map, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("density: contraction mismatch %d vs %d", a.Cols, b.Rows)
	}
	m := NewMap(a.Rows, b.Cols, block)
	cnt := make([]int64, m.BR*m.BC)
	mark := make([]int32, b.Cols)
	for i := range mark {
		mark[i] = -1
	}
	for i := 0; i < a.Rows; i++ {
		acols, _ := a.Row(i)
		base := i / block * m.BC
		for _, k := range acols {
			bcols, _ := b.Row(int(k))
			for _, j := range bcols {
				if mark[j] != int32(i) {
					mark[j] = int32(i)
					cnt[base+int(j)/block]++
				}
			}
		}
	}
	m.fromCounts(cnt)
	return m, nil
}
