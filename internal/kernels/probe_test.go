package kernels

import (
	"math"
	"math/rand"
	"testing"
)

// TestProbeRowLanes holds ProbeRow, whichever body runs, to its definition:
// four lanes per probe column, cell c into lane c mod 4, added as
// (l0 + l1) + (l2 + l3), and a count of the cells whose bits are not ±0.
// NaN is compared as a class; which NaN a sum of two returns is the
// compiler's operand order, held by the vector kernels' oracle.
func TestProbeRowLanes(t *testing.T) {
	r := rand.New(rand.NewSource(46))
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 5e-324}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	for n := 0; n < 300; n++ {
		row, x1, x2 := make([]float64, n), make([]float64, n+3), make([]float64, n+3)
		for i := range row {
			row[i] = r.NormFloat64()
			if r.Intn(4) == 0 {
				row[i] = specials[r.Intn(len(specials))]
			}
		}
		for i := range x1 {
			x1[i], x2[i] = float64(r.Intn(2)*2-1), r.NormFloat64()
		}
		var l1, l2 [4]float64
		var want int64
		for c, v := range row {
			l1[c%4] += v * x1[c]
			l2[c%4] += v * x2[c]
			if math.Float64bits(v)&^(1<<63) != 0 {
				want++
			}
		}
		w1, w2 := (l1[0]+l1[1])+(l1[2]+l1[3]), (l2[0]+l2[1])+(l2[2]+l2[3])
		s1, s2, nnz := ProbeRow(row, x1, x2)
		if !same(s1, w1) || !same(s2, w2) || nnz != want {
			t.Fatalf("n %d: ProbeRow = (%v, %v, %d), want (%v, %v, %d)", n, s1, s2, nnz, w1, w2, want)
		}
		if got := NonZeros(row); got != want {
			t.Fatalf("n %d: NonZeros = %d, want %d", n, got, want)
		}
	}
}
