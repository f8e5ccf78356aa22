package core

import (
	"fmt"

	"atmatrix/internal/kernels"
	"atmatrix/internal/mat"
	"atmatrix/internal/sched"
)

// This file implements the plain (unpartitioned) multiplication operators
// the paper compares ATMULT against in Figs. 8–10: spspsp_gemm (the
// Gustavson baseline also used by MATLAB/R), spspd_gemm, spdd_gemm,
// dspd_gemm and ddd_gemm. They run the same shared-memory-parallel kernels
// as ATMULT but on the whole matrices, with rows split across all workers
// of the pool.

// rowChunks splits m rows into one chunk per worker.
func rowChunks(m, workers int) []Band {
	if workers > m {
		workers = m
	}
	if workers < 1 {
		workers = 1
	}
	chunk := (m + workers - 1) / workers
	var out []Band
	for lo := 0; lo < m; lo += chunk {
		hi := lo + chunk
		if hi > m {
			hi = m
		}
		out = append(out, Band{lo, hi})
	}
	return out
}

// forRowChunks is the parallel loop all plain operators share: body runs
// once per chunk i of the m result rows, one chunk per simulated core (at
// most TotalCores). Plain kernels have no tile structure; a chunk is homed
// by its first row like everything else.
func forRowChunks(cfg Config, m int, body func(team *sched.Team, i int, rows Band)) error {
	chunks := rowChunks(m, cfg.Topology.TotalCores())
	_, err := RunHomed(nil, cfg, 0, len(chunks),
		func(i int) int { return chunks[i].Lo },
		func(team *sched.Team, i int) { body(team, i, chunks[i]) })
	return err
}

// MulSpSpSp is the plain sparse × sparse → sparse baseline (Gustavson's
// algorithm with a sparse accumulator), parallelized over row chunks.
func MulSpSpSp(a, b *mat.CSR, cfg Config) (*mat.CSR, error) {
	if a.Cols != b.Rows {
		return nil, contractionErr(a.Rows, a.Cols, b.Rows, b.Cols)
	}
	acc := kernels.NewSpAcc(a.Rows, b.Cols)
	acc.Split(cfg.Topology.TotalCores())
	terms := []kernels.Term{{A: kernels.FullCSR(a), B: kernels.FullCSR(b)}}
	err := forRowChunks(cfg, a.Rows, func(team *sched.Team, i int, ch Band) {
		// The worker's persistent scratch is exclusively ours for the
		// duration of the task; each chunk writes its own segment.
		acc.Pass(i, ch.Lo, ch.Hi, terms, stateFor(team, cfg.EphemeralWorkers).scratch)
	})
	if err != nil {
		return nil, err
	}
	return acc.ToCSR(), nil
}

// MulSpSpD is the plain sparse × sparse → dense operator (spspd_gemm).
func MulSpSpD(a, b *mat.CSR, cfg Config) (*mat.Dense, error) {
	if a.Cols != b.Rows {
		return nil, contractionErr(a.Rows, a.Cols, b.Rows, b.Cols)
	}
	c := mat.NewDense(a.Rows, b.Cols)
	err := forRowChunks(cfg, a.Rows, func(_ *sched.Team, _ int, ch Band) {
		aw := kernels.CSRWin{M: a, Row0: ch.Lo, Rows: ch.Len(), Cols: a.Cols}
		kernels.SpSpD(c.Window(ch.Lo, ch.Hi, 0, c.Cols), aw, kernels.FullCSR(b))
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// MulSpDD is the plain sparse × dense → dense operator (spdd_gemm).
func MulSpDD(a *mat.CSR, b *mat.Dense, cfg Config) (*mat.Dense, error) {
	if a.Cols != b.Rows {
		return nil, contractionErr(a.Rows, a.Cols, b.Rows, b.Cols)
	}
	c := mat.NewDense(a.Rows, b.Cols)
	err := forRowChunks(cfg, a.Rows, func(_ *sched.Team, _ int, ch Band) {
		aw := kernels.CSRWin{M: a, Row0: ch.Lo, Rows: ch.Len(), Cols: a.Cols}
		kernels.SpDD(c.Window(ch.Lo, ch.Hi, 0, c.Cols), aw, b)
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// MulDSpD is the plain dense × sparse → dense operator (dspd_gemm), one of
// the combinations vendor libraries typically lack (§III-A).
func MulDSpD(a *mat.Dense, b *mat.CSR, cfg Config) (*mat.Dense, error) {
	if a.Cols != b.Rows {
		return nil, contractionErr(a.Rows, a.Cols, b.Rows, b.Cols)
	}
	c := mat.NewDense(a.Rows, b.Cols)
	err := forRowChunks(cfg, a.Rows, func(team *sched.Team, _ int, ch Band) {
		kernels.DSpDScratch(c.Window(ch.Lo, ch.Hi, 0, c.Cols), a.Window(ch.Lo, ch.Hi, 0, a.Cols), kernels.FullCSR(b),
			stateFor(team, cfg.EphemeralWorkers).scratch)
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// MulDDD is the plain dense × dense → dense operator (ddd_gemm).
func MulDDD(a, b *mat.Dense, cfg Config) (*mat.Dense, error) {
	if a.Cols != b.Rows {
		return nil, contractionErr(a.Rows, a.Cols, b.Rows, b.Cols)
	}
	c := mat.NewDense(a.Rows, b.Cols)
	err := forRowChunks(cfg, a.Rows, func(_ *sched.Team, _ int, ch Band) {
		kernels.DDD(c.Window(ch.Lo, ch.Hi, 0, c.Cols), a.Window(ch.Lo, ch.Hi, 0, a.Cols), b)
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

func contractionErr(am, ak, bk, bn int) error {
	return fmt.Errorf("core: contraction mismatch: A is %d×%d, B is %d×%d", am, ak, bk, bn)
}
