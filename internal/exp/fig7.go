package exp

import (
	"fmt"
	"time"

	"atmatrix/internal/core"
	"atmatrix/internal/mat"
)

// Fig7Row reports the partitioning component durations for one matrix,
// relative to a single plain sparse multiplication — Fig. 7 of the paper.
type Fig7Row struct {
	ID            string
	SortTime      time.Duration
	CountTime     time.Duration
	BuildTime     time.Duration
	MultTime      time.Duration // one spspsp_gemm execution
	RelativeTotal float64       // partition total / mult time
}

// RunFig7 measures, per matrix, the staging sort, the ZBlockCnts pass,
// and the recursion+materialization — and compares their sum with one
// traditional sparse multiplication. The paper's claim: the partitioning
// cost stays below one multiplication except for R8-like cases (large
// dimensions, small result).
func RunFig7(o Options) ([]Fig7Row, error) {
	specs, err := o.Specs()
	if err != nil {
		return nil, err
	}
	cfg := o.Config()
	var rows []Fig7Row
	tw := newTable("ID", "sort", "blockcnts", "recursion+mat", "1x spspsp", "partition/mult")
	for _, s := range specs {
		a, err := o.Generate(s)
		if err != nil {
			return nil, fmt.Errorf("exp: generating %s: %w", s.ID, err)
		}
		_, pstats, err := core.Partition(a, cfg)
		if err != nil {
			return nil, fmt.Errorf("exp: partitioning %s: %w", s.ID, err)
		}
		for rep := 1; rep < o.Reps; rep++ {
			_, ps2, err := core.Partition(a, cfg)
			if err != nil {
				return nil, fmt.Errorf("exp: partitioning %s: %w", s.ID, err)
			}
			if ps2.Total() < pstats.Total() {
				pstats = ps2
			}
		}
		csr := a.ToCSR()
		var multErr error
		multTime := o.timedBest(func() {
			var out *mat.CSR
			out, multErr = core.MulSpSpSp(csr, csr, cfg)
			_ = out
		})
		if multErr != nil {
			return nil, fmt.Errorf("exp: spspsp on %s: %w", s.ID, multErr)
		}
		row := Fig7Row{
			ID:        s.ID,
			SortTime:  pstats.SortTime,
			CountTime: pstats.CountTime,
			BuildTime: pstats.BuildTime,
			MultTime:  multTime,
		}
		if multTime > 0 {
			row.RelativeTotal = float64(pstats.Total()) / float64(multTime)
		}
		rows = append(rows, row)
		tw.addRow(s.ID, fmtDur(row.SortTime), fmtDur(row.CountTime), fmtDur(row.BuildTime),
			fmtDur(row.MultTime), fmt.Sprintf("%.3f", row.RelativeTotal))
	}
	tw.render(o.out(), fmt.Sprintf("Fig. 7: partitioning components vs one spspsp multiplication (scale %.4g)", o.Scale))
	if err := tw.writeCSV(o.CSVDir, "fig7"); err != nil {
		return nil, err
	}
	return rows, nil
}
