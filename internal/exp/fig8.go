package exp

import (
	"fmt"
	"time"

	"atmatrix/internal/core"
	"atmatrix/internal/mat"
)

// Fig8Row holds the C = A·A measurements of one matrix: the runtimes of
// the plain kernels and ATMULT (Fig. 8a), the optimization-time fractions
// (Fig. 8b), and the result memory footprints (Fig. 8c).
type Fig8Row struct {
	ID string

	SpSpSp time.Duration // baseline (≡ 1)
	SpSpD  time.Duration
	SpDD   time.Duration
	DDD    time.Duration

	ATPartition time.Duration
	ATMult      time.Duration
	ATTotal     time.Duration // partition + multiply (the Fig. 8a quantity)

	EstimateShare  float64 // Fig. 8b: density estimation fraction of ATMULT
	OptimizeShare  float64 // Fig. 8b: dynamic optimization (incl. conversions)
	Conversions    int64
	WriteThreshold float64 // Fig. 8b: effective ρ0^W the result tiles were classified by
	SparseTiles    int     // Fig. 8b: sparse tiles of the result
	DenseTiles     int     // Fig. 8b: dense tiles of the result

	ResultNNZ     int64
	BytesATMatrix int64 // Fig. 8c: AT MATRIX result
	BytesCSR      int64 // Fig. 8c: plain CSR result
	BytesDense    int64 // Fig. 8c: plain dense result
}

// Speedup returns t_spspsp / d, the relative performance with the
// spspsp_gemm baseline ≡ 1 (0 when the approach was skipped).
func (r Fig8Row) Speedup(d time.Duration) float64 {
	if d <= 0 || r.SpSpSp <= 0 {
		return 0
	}
	return float64(r.SpSpSp) / float64(d)
}

// RunFig8 executes the sparse self-multiplication experiment C = A·A for
// every selected matrix with all five approaches. Dense-flop approaches
// beyond the flop cap are skipped (reported as 0), exactly like the
// orders-of-magnitude-slower dense runs the paper reports for R7–R9.
func RunFig8(o Options) ([]Fig8Row, error) {
	specs, err := o.Specs()
	if err != nil {
		return nil, err
	}
	cfg := o.Config()
	var rows []Fig8Row
	ta := newTable("ID", "spspsp", "spspd", "spdd", "ddd", "ATMULT", "AT(speedup)", "spspd(x)", "spdd(x)", "ddd(x)")
	tb := newTable("ID", "estimate%", "optimize%", "conversions", "ρW(eff)", "sparse tiles", "dense tiles")
	tc := newTable("ID", "nnz(C)", "ATMatrix", "CSR", "dense")
	for _, s := range specs {
		a, err := o.Generate(s)
		if err != nil {
			return nil, fmt.Errorf("exp: generating %s: %w", s.ID, err)
		}
		row, err := runFig8One(o, cfg, s.ID, a)
		if err != nil {
			return nil, fmt.Errorf("exp: fig8 %s: %w", s.ID, err)
		}
		rows = append(rows, row)
		ta.addRow(row.ID, fmtDur(row.SpSpSp), fmtDur(row.SpSpD), fmtDur(row.SpDD), fmtDur(row.DDD),
			fmtDur(row.ATTotal), fmtSpeedup(row.Speedup(row.ATTotal)),
			fmtSpeedup(row.Speedup(row.SpSpD)), fmtSpeedup(row.Speedup(row.SpDD)), fmtSpeedup(row.Speedup(row.DDD)))
		tb.addRow(row.ID, fmt.Sprintf("%.3f", 100*row.EstimateShare), fmt.Sprintf("%.2f", 100*row.OptimizeShare),
			fmt.Sprintf("%d", row.Conversions), fmt.Sprintf("%.4g", row.WriteThreshold),
			fmt.Sprintf("%d", row.SparseTiles), fmt.Sprintf("%d", row.DenseTiles))
		tc.addRow(row.ID, fmt.Sprintf("%d", row.ResultNNZ), fmtBytes(row.BytesATMatrix), fmtBytes(row.BytesCSR), fmtBytes(row.BytesDense))
	}
	ta.render(o.out(), fmt.Sprintf("Fig. 8a: C = A·A runtimes and relative performance (spspsp ≡ 1, scale %.4g)", o.Scale))
	if err := ta.writeCSV(o.CSVDir, "fig8a"); err != nil {
		return nil, err
	}
	tb.render(o.out(), "Fig. 8b: ATMULT optimization-time breakdown and result-tile decisions")
	if err := tb.writeCSV(o.CSVDir, "fig8b"); err != nil {
		return nil, err
	}
	tc.render(o.out(), "Fig. 8c: result memory consumption")
	if err := tc.writeCSV(o.CSVDir, "fig8c"); err != nil {
		return nil, err
	}
	return rows, nil
}

func runFig8One(o Options, cfg core.Config, id string, a *mat.COO) (Fig8Row, error) {
	row := Fig8Row{ID: id}
	csr := a.ToCSR()
	n := a.Rows
	nnzA := csr.NNZ()

	// spspsp baseline.
	var err error
	var outCSR *mat.CSR
	row.SpSpSp = o.timedBest(func() { outCSR, err = core.MulSpSpSp(csr, csr, cfg) })
	if err != nil {
		return row, err
	}
	row.ResultNNZ = outCSR.NNZ()
	row.BytesCSR = outCSR.Bytes()
	row.BytesDense = mat.DenseBytes(n, n)
	outCSR = nil

	// spspd: sparse inputs, dense target.
	if !o.byteCapExceeded(n, n) {
		row.SpSpD = o.timedBest(func() { _, err = core.MulSpSpD(csr, csr, cfg) })
		if err != nil {
			return row, err
		}
	}
	// spdd: B converted to a dense array.
	if !o.skipFlops(float64(nnzA)*float64(n)) && !o.byteCapExceeded(n, 2*n) {
		bd := csr.ToDense()
		row.SpDD = o.timedBest(func() { _, err = core.MulSpDD(csr, bd, cfg) })
		if err != nil {
			return row, err
		}
	}
	// ddd: both operands dense.
	if !o.skipDense(n, n, n) && !o.byteCapExceeded(n, 3*n) {
		ad := csr.ToDense()
		row.DDD = o.timedBest(func() { _, err = core.MulDDD(ad, ad, cfg) })
		if err != nil {
			return row, err
		}
	}

	// ATMULT: partition once, multiply, keep the stats. An optional
	// flexible memory limit (as a fraction of the dense result footprint)
	// exercises the §III-E water-level path.
	mcfg := cfg
	if o.MemLimitFrac > 0 {
		mcfg.MemLimit = int64(o.MemLimitFrac * float64(mat.DenseBytes(n, n)))
	}
	var am *core.ATMatrix
	row.ATPartition = o.timedBest(func() { am, _, err = core.Partition(a, mcfg) })
	if err != nil {
		return row, err
	}
	var cm *core.ATMatrix
	var mstats *core.MultStats
	row.ATMult = o.timedBest(func() { cm, mstats, err = core.Multiply(am, am, mcfg) })
	if err != nil {
		return row, err
	}
	row.ATTotal = row.ATPartition + row.ATMult
	row.EstimateShare = mstats.EstimateShare()
	row.OptimizeShare = mstats.OptimizeShare()
	row.Conversions = mstats.Conversions
	row.WriteThreshold = mstats.WriteThreshold
	row.SparseTiles, row.DenseTiles = cm.TileCount()
	row.BytesATMatrix = cm.Bytes()
	if got := cm.NNZ(); got != row.ResultNNZ {
		return row, fmt.Errorf("ATMULT result nnz %d differs from spspsp %d", got, row.ResultNNZ)
	}
	return row, nil
}

// skipFlops applies the flop cap to an arbitrary flop estimate.
func (o Options) skipFlops(flops float64) bool {
	return o.FlopCap > 0 && flops > o.FlopCap
}

// byteCapExceeded guards dense intermediate allocations: rows·cols dense
// arrays above 2 GB are skipped.
func (o Options) byteCapExceeded(rows, cols int) bool {
	return mat.DenseBytes(rows, cols) > 2<<30
}
