package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"atmatrix/internal/catalog"
	"atmatrix/internal/core"
	"atmatrix/internal/density"
	"atmatrix/internal/expr"
	"atmatrix/internal/mat"
	"atmatrix/internal/mmio"
	"atmatrix/internal/numa"
	"atmatrix/internal/service"
)

// The onion replay. The server is a black box to this PR (spans inside the
// program are a later change), so the per-layer numbers come from executing
// every request kind again in the driver process, with the same operands and
// the same core.Config, once per level of the stack:
//
//	l1  the call the HTTP handler makes: service.Manager.Submit + Job.Wait,
//	    Catalog.Load, Catalog.Delete
//	l2  the calls l1 makes: Catalog.Acquire, core.MultiplyOpt (its MultStats
//	    give the phase split), Repartition + Catalog.Put for a stored result;
//	    expr.Parse → PlanExpr → Plan.Execute → expr.Verify; mmio.Read* →
//	    core.Partition → Catalog.Put
//	l3  leaf calls on their own: DensityMap, density.EstimateProduct,
//	    core.PlanWriteThreshold, core.VerifyProduct, SealChecksums, WriteFile
//
// l1 and l2 run whole cycles in order against one catalog opened like the
// server's (same budget, a data directory when the workload is durable), so
// spills and reloads happen in the replay where they happen in the server.
const (
	levelHTTP = "http"
	level1    = "l1"
	level2    = "l2"
	level3    = "l3"
)

type replay struct {
	w   *workload
	cfg core.Config
	rec *Recorder
	dir string // scratch directory
	cat *catalog.Catalog
	mgr *service.Manager

	mult    map[string][]*core.MultStats // MultStats of the l2 core.MultiplyOpt calls, by kind
	exec    map[string][]*expr.ExecStats // ExecStats of the l2 Plan.Execute calls, by kind
	part    []*core.PartitionStats       // every timed core.Partition
	lastOut map[string]*core.ATMatrix    // the last l2 product of each multiply kind
}

func newReplay(p *prepared, rec *Recorder) (*replay, error) {
	r := &replay{
		w: p.w, cfg: p.cfg, rec: rec, dir: p.runDir,
		mult: map[string][]*core.MultStats{}, exec: map[string][]*expr.ExecStats{},
		lastOut: map[string]*core.ATMatrix{},
	}
	var err error
	if r.cat, err = r.openCatalog("replay-data", r.w.Budget); err != nil {
		return nil, err
	}
	for _, op := range r.w.Operands {
		if _, err := r.cat.Load(op.Name, catalog.Format(op.Format), bytes.NewReader(op.Payload), false); err != nil {
			return nil, fmt.Errorf("replay: loading %s: %w", op.Name, err)
		}
	}
	r.mgr = service.New(r.cat, service.Options{Verify: benchVerify})
	return r, nil
}

func (r *replay) openCatalog(sub string, budget int64) (*catalog.Catalog, error) {
	dataDir := ""
	if r.w.Durable {
		dataDir = filepath.Join(r.dir, sub)
	}
	return catalog.Open(r.cfg, budget, dataDir)
}

func (r *replay) close() error {
	err := r.mgr.Close(10 * time.Second)
	r.cat.Close()
	return err
}

// span times f as one span.
func (r *replay) span(level, kind, name string, req int, f func() error) error {
	_, err := timed(r, level, kind, name, req, func() (struct{}, error) { return struct{}{}, f() })
	return err
}

// timed times f as one span and passes its value on.
func timed[T any](r *replay, level, kind, name string, req int, f func() (T, error)) (T, error) {
	id := r.rec.Begin(level, kind, name, req)
	v, err := f()
	r.rec.End(id)
	if err != nil {
		err = fmt.Errorf("replay %s %s %s: %w", level, kind, name, err)
	}
	return v, err
}

// repeat runs f at least min times, then until max runs or the budget is
// spent, whichever comes first.
func repeat(min, max int, budget time.Duration, f func() error) error {
	t0 := time.Now()
	for i := 0; i < max; i++ {
		if i >= min && time.Since(t0) >= budget {
			return nil
		}
		if err := f(); err != nil {
			return err
		}
	}
	return nil
}

// repeatSpan records f as a span of its own request id, repeatedly (see repeat).
func (r *replay) repeatSpan(min, max int, budget time.Duration, level, kind, name string, f func() error) error {
	return repeat(min, max, budget, func() error { return r.span(level, kind, name, r.rec.NextReq(), f) })
}

// cycles replays whole cycles, alternating l1 and l2 so that both levels see
// the same drift of the host (their difference is a layer's self time).
func (r *replay) cycles(budget time.Duration) error {
	return repeat(3, 30, budget, func() error {
		for _, step := range []func(*step, int) error{r.stepL1, r.stepL2} {
			for i := range r.w.Cycle {
				if err := step(&r.w.Cycle[i], r.rec.NextReq()); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

func checkAnswer(st *step, rows, cols int, nnz int64) error {
	if w := st.Want; rows != w.Rows || cols != w.Cols || nnz != w.NNZ {
		return fmt.Errorf("wrong answer: got %dx%d nnz %d, reference %dx%d nnz %d", rows, cols, nnz, w.Rows, w.Cols, w.NNZ)
	}
	return nil
}

func (r *replay) stepL1(st *step, req int) error {
	switch st.Op {
	case opMultiply, opEval:
		return r.span(level1, st.Kind, "service.submit_wait", req, func() error {
			job, err := r.mgr.Submit(service.Request{A: st.A, B: st.B, Store: st.Store, Expr: st.Expr})
			if err != nil {
				return err
			}
			res, err := job.Wait()
			if err != nil {
				return err
			}
			return checkAnswer(st, res.Rows, res.Cols, res.NNZ)
		})
	case opPut:
		return r.span(level1, st.Kind, "catalog.load", req, func() error {
			info, err := r.cat.Load(st.Name, catalog.Format(st.Put.Format), bytes.NewReader(st.Put.Payload), false)
			if err != nil {
				return err
			}
			return checkAnswer(st, info.Rows, info.Cols, info.NNZ)
		})
	default:
		return r.span(level1, st.Kind, "catalog.delete", req, func() error { return r.cat.Delete(st.Name) })
	}
}

// acquire leases one operand; a lease that had to reload a spilled matrix is
// recorded as catalog.reload instead of catalog.acquire.
func (r *replay) acquire(kind, name string, req int) (*catalog.Handle, error) {
	before := r.cat.Stats().Reloads
	id := r.rec.Begin(level2, kind, "catalog.acquire", req)
	h, err := r.cat.Acquire(name)
	r.rec.End(id)
	if err != nil {
		return nil, fmt.Errorf("replay l2 %s: acquiring %s: %w", kind, name, err)
	}
	if r.cat.Stats().Reloads > before {
		r.rec.Rename(id, "catalog.reload")
	}
	return h, nil
}

func (r *replay) stepL2(st *step, req int) error {
	switch st.Op {
	case opMultiply:
		return r.multiplyL2(st, req)
	case opEval:
		return r.evalL2(st, req)
	case opPut:
		m, err := r.readAndPartition(st.Kind, st.Put, req)
		if err != nil {
			return err
		}
		if err := checkAnswer(st, m.Rows, m.Cols, m.NNZ()); err != nil {
			return err
		}
		return r.span(level2, st.Kind, "catalog.put", req, func() error { return r.cat.Put(st.Name, m, false) })
	default:
		return r.span(level2, st.Kind, "catalog.delete", req, func() error { return r.cat.Delete(st.Name) })
	}
}

func (r *replay) multiplyL2(st *step, req int) error {
	ha, err := r.acquire(st.Kind, st.A, req)
	if err != nil {
		return err
	}
	defer ha.Release()
	hb, err := r.acquire(st.Kind, st.B, req)
	if err != nil {
		return err
	}
	defer hb.Release()
	out, err := timed(r, level2, st.Kind, "core.multiply_opt", req, func() (*core.ATMatrix, error) {
		out, mst, err := core.MultiplyOpt(ha.Matrix(), hb.Matrix(), r.cfg, benchMultOptions())
		if err == nil {
			r.mult[st.Kind] = append(r.mult[st.Kind], mst)
		}
		return out, err
	})
	if err != nil {
		return err
	}
	r.lastOut[st.Kind] = out
	if err := checkAnswer(st, out.Rows, out.Cols, out.NNZ()); err != nil {
		return err
	}
	if st.Store == "" {
		return nil
	}
	re, err := timed(r, level2, st.Kind, "core.repartition", req, func() (*core.ATMatrix, error) {
		re, _, err := out.Repartition(r.cfg)
		return re, err
	})
	if err != nil {
		return err
	}
	return r.span(level2, st.Kind, "catalog.put", req, func() error { return r.cat.Put(st.Store, re, false) })
}

func (r *replay) evalL2(st *step, req int) error {
	node, err := timed(r, level2, st.Kind, "expr.parse", req, func() (expr.Node, error) { return expr.Parse(st.Expr) })
	if err != nil {
		return err
	}
	bind := map[string]*core.ATMatrix{}
	for _, v := range expr.Vars(node) {
		h, err := r.acquire(st.Kind, v, req)
		if err != nil {
			return err
		}
		defer h.Release()
		bind[v] = h.Matrix()
	}
	plan, err := timed(r, level2, st.Kind, "expr.plan", req, func() (*expr.Plan, error) {
		return expr.PlanExpr(node, bind, r.cfg, expr.Options{Mult: core.DefaultMultOptions()})
	})
	if err != nil {
		return err
	}
	out, err := timed(r, level2, st.Kind, "expr.execute", req, func() (*core.ATMatrix, error) {
		out, est, err := plan.Execute()
		if err == nil {
			r.exec[st.Kind] = append(r.exec[st.Kind], est)
		}
		return out, err
	})
	if err != nil {
		return err
	}
	if err := checkAnswer(st, out.Rows, out.Cols, out.NNZ()); err != nil {
		return err
	}
	return r.span(level2, st.Kind, "expr.verify", req, func() error {
		return expr.Verify(plan.Expr, bind, out, benchVerify, int64(req))
	})
}

// readAndPartition is the first half of Catalog.Load, timed call by call.
func (r *replay) readAndPartition(kind string, op *operand, req int) (*core.ATMatrix, error) {
	read := mmio.ReadBinary
	if op.Format == "mtx" {
		read = mmio.ReadMatrixMarket
	}
	coo, err := timed(r, level2, kind, "mmio.read", req, func() (*mat.COO, error) { return read(bytes.NewReader(op.Payload)) })
	if err != nil {
		return nil, err
	}
	return timed(r, level2, kind, "core.partition", req, func() (*core.ATMatrix, error) {
		m, ps, err := core.Partition(coo, r.cfg)
		if err == nil {
			r.part = append(r.part, ps)
		}
		return m, err
	})
}

// setupOperands times, in a scratch catalog of its own, what set-up costs the
// server for every set-up operand: Catalog.Load and Delete (l1), the reader
// and the partitioner (l2), and a repartition (l3).
func (r *replay) setupOperands(budget time.Duration) error {
	scratch, err := r.openCatalog("replay-setup", 0)
	if err != nil {
		return err
	}
	defer scratch.Close()
	per := budget / time.Duration(3*len(r.w.Operands))
	for _, op := range r.w.Operands {
		kind := "setup:" + op.Name
		err := repeat(2, 10, per, func() error {
			req := r.rec.NextReq()
			if err := r.span(level1, kind, "catalog.load", req, func() error {
				_, err := scratch.Load(op.Name, catalog.Format(op.Format), bytes.NewReader(op.Payload), false)
				return err
			}); err != nil {
				return err
			}
			return r.span(level1, kind, "catalog.delete", req, func() error { return scratch.Delete(op.Name) })
		})
		if err != nil {
			return err
		}
		if err := repeat(2, 10, per, func() error {
			_, err := r.readAndPartition(kind, op, r.rec.NextReq())
			return err
		}); err != nil {
			return err
		}
		if err := r.repeatSpan(2, 10, per, level3, kind, "core.repartition", func() error {
			_, _, err := op.M.Repartition(r.cfg)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// estimateGrid mirrors the grid coarsening of core's unexported
// estimateProductDensity (the estimator's cost depends on the grid, not on
// nnz, so core doubles the block until every map fits 2^13 cells) so that the
// leaf call below times the estimate ATMULT actually runs.
func estimateGrid(a, b *core.ATMatrix, cfg core.Config) int {
	cells := func(m, n, block int) int { return ((m + block - 1) / block) * ((n + block - 1) / block) }
	block := cfg.BAtomic
	for cells(a.Rows, b.Cols, block) > 1<<13 || cells(a.Rows, a.Cols, block) > 1<<13 || cells(b.Rows, b.Cols, block) > 1<<13 {
		block *= 2
	}
	return block
}

// leaves times the l3 calls of every multiply and put kind on their own.
func (r *replay) leaves(perKind time.Duration) (estRatio []float64, err error) {
	for _, st := range r.w.kindSteps() {
		switch st.Op {
		case opMultiply:
			a, b, c := r.w.mats[st.A], r.w.mats[st.B], r.lastOut[st.Kind]
			block := estimateGrid(a, b, r.cfg)
			var est *density.Map
			err = repeat(3, 30, perKind, func() error {
				req := r.rec.NextReq()
				fresh, err := core.NewFromTiles(a.Rows, a.Cols, a.BAtomic, a.Tiles) // DensityMap caches per matrix
				if err != nil {
					return err
				}
				_ = r.span(level3, st.Kind, "density.map", req, func() error { fresh.DensityMap(); return nil })
				ma, mb := a.DensityMapAt(block), b.DensityMapAt(block)
				_ = r.span(level3, st.Kind, "density.estimate_product", req, func() error { est = density.EstimateProduct(ma, mb); return nil })
				_ = r.span(level3, st.Kind, "core.plan_write_threshold", req, func() error { core.PlanWriteThreshold(a, b, r.cfg); return nil })
				return r.span(level3, st.Kind, "core.verify_product", req, func() error {
					return core.VerifyProduct(a, b, c, benchVerify, int64(req))
				})
			})
			if err != nil {
				return nil, err
			}
			estRatio = append(estRatio, est.ExpectedNNZ()/float64(st.Want.NNZ))
		case opPut:
			path := filepath.Join(r.dir, "leaf.atm")
			err = repeat(3, 30, perKind, func() error {
				req := r.rec.NextReq()
				_ = r.span(level3, st.Kind, "core.seal_checksums", req, func() error { st.Put.M.SealChecksums(); return nil })
				return r.span(level3, st.Kind, "core.write_file", req, func() error {
					_, err := st.Put.M.WriteFile(path)
					return err
				})
			})
			if err != nil {
				return nil, err
			}
		}
	}
	return estRatio, nil
}

// variants times the second paths ROADMAP wants decided on numbers, per
// multiply kind: ATMULT at a 1×1 topology (the base of sched.speedup),
// ATMULT with EphemeralWorkers, and the plain single-representation SpGEMM;
// and, for chain3, the materializing expr mode and core.MultiplyChainOpt.
func (r *replay) variants(perKind time.Duration) error {
	one := r.cfg
	one.Topology = numa.Topology{Sockets: 1, CoresPerSocket: 1}
	eph := r.cfg
	eph.EphemeralWorkers = true
	for _, st := range r.w.kindSteps() {
		variant := func(name string, f func() error) error {
			return r.repeatSpan(2, 10, perKind, level2, st.Kind, name, f)
		}
		var err error
		switch {
		case st.Op == opMultiply:
			a, b := r.w.mats[st.A], r.w.mats[st.B]
			ac, bc := a.ToCSR(), b.ToCSR()
			mult := func(cfg core.Config) func() error {
				return func() error { _, _, err := core.MultiplyOpt(a, b, cfg, benchMultOptions()); return err }
			}
			err = errors.Join(
				variant("core.multiply_opt_1x1", mult(one)),
				variant("core.multiply_opt_ephemeral", mult(eph)),
				variant("core.plain_spspsp", func() error { _, err := core.MulSpSpSp(ac, bc, one); return err }),
			)
		case st.Kind == "chain3":
			m := r.w.mats["R9"]
			err = errors.Join(
				variant("expr.eval_materialized", func() error {
					_, _, _, err := expr.Eval(st.Expr, r.w.mats, r.cfg, expr.Options{Materialize: true, Mult: core.DefaultMultOptions()})
					return err
				}),
				variant("core.multiply_chain_opt", func() error {
					_, _, err := core.MultiplyChainOpt([]*core.ATMatrix{m, m, m}, r.cfg, core.DefaultMultOptions())
					return err
				}),
			)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// l2Names are the l2 spans that make up one l1 call, by operation.
var l2Names = map[opType][]string{
	opMultiply: {"catalog.acquire", "catalog.reload", "core.multiply_opt", "core.repartition", "catalog.put"},
	opEval:     {"expr.parse", "catalog.acquire", "expr.plan", "expr.execute", "expr.verify"},
	opPut:      {"mmio.read", "core.partition", "catalog.put"},
	opDelete:   {"catalog.delete"},
}

// clockedNames are the l2 spans the server's wall_ns covers: service.execute
// starts the clock after the operands are acquired and stops it after
// MultiplyOpt, or after Plan.Execute — before expr.Verify, and before a
// stored result's Repartition + Put.
var clockedNames = map[opType][]string{
	opMultiply: {"core.multiply_opt"},
	opEval:     {"expr.plan", "expr.execute"},
}

// l1Name is the l1 span of an operation.
func l1Name(op opType) string {
	switch op {
	case opPut:
		return "catalog.load"
	case opDelete:
		return "catalog.delete"
	}
	return "service.submit_wait"
}

// sumL2 adds the per-request totals of the named l2 spans of one kind: the
// median over requests of the sum (a kind may hold several spans of one name
// per request, e.g. two acquires).
func (r *replay) sumL2(kind string, names []string) float64 {
	byReq := map[int]float64{}
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	for i := range r.rec.spans {
		if s := &r.rec.spans[i]; s.Level == level2 && s.Kind == kind && want[s.Name] {
			byReq[s.Req] += float64(s.EndNS-s.StartNS) / 1e6
		}
	}
	var sums []float64
	for _, v := range byReq {
		sums = append(sums, v)
	}
	return median(sums)
}

// onionRow is one request kind's decomposition (p50, ms).
type onionRow struct {
	Kind           string
	ClientMS       float64 // client-seen latency
	HTTPMS         float64 // atserve's own share: HTTP stack, JSON, handler
	L1MS, L2MS     float64 // replayed l1 call; sum of the l2 spans beneath it
	SelfMS         float64 // l1 − l2: the layer the handler calls, minus what it calls
	ServerMS       float64 // the reply's queue_ns+wall_ns (0 for kinds whose reply carries none)
	ClockedMS      float64 // the replayed l2 spans that the server's wall_ns covers
	Explained      float64 // (HTTPMS + L1MS) ÷ ClientMS
	hasServerTimes bool
}

// onion builds the per-kind decomposition from the traced HTTP window and
// the replay. atserve's own share is client − queue_ns − wall_ns where the
// reply's wall_ns covers the whole job, which is the plain multiplies only
// (service.executeEval stops the clock before expr.Verify, and a stored
// result's Repartition + Put come after it too); for every other kind it is
// pingMS, the round trip of a request with no work behind it.
func (r *replay) onion(loop *loopResult, pingMS float64) []onionRow {
	var rows []onionRow
	for _, st := range r.w.kindSteps() {
		row := onionRow{Kind: st.Kind, ClientMS: median(loop.latencies(st.Kind)), HTTPMS: pingMS, hasServerTimes: st.hasResult()}
		row.L1MS = r.rec.Med(level1, st.Kind, l1Name(st.Op))
		row.L2MS = r.sumL2(st.Kind, l2Names[st.Op])
		row.SelfMS = row.L1MS - row.L2MS
		if st.hasResult() {
			row.ServerMS = median(loop.serverMS(st.Kind))
			row.ClockedMS = r.sumL2(st.Kind, clockedNames[st.Op])
			if st.Op == opMultiply && st.Store == "" {
				row.HTTPMS = row.ClientMS - row.ServerMS
			}
		}
		if row.ClientMS > 0 {
			row.Explained = (row.HTTPMS + row.L1MS) / row.ClientMS
		}
		rows = append(rows, row)
	}
	return rows
}

func printOnion(w io.Writer, rows []onionRow) {
	fmt.Fprintf(w, "\n  onion (ms, p50): client ≈ atserve + l1; l1 = l1 self + sum of l2 spans; server = the reply's queue_ns+wall_ns\n")
	fmt.Fprintf(w, "  %-11s %10s %10s %10s %10s %10s %10s %9s\n", "kind", "client", "atserve", "l1", "l1 self", "l2 sum", "server", "explained")
	for _, o := range rows {
		fmt.Fprintf(w, "  %-11s %10.3f %10.3f %10.3f %10.3f %10.3f %10.3f %8.0f%%\n", o.Kind, o.ClientMS, o.HTTPMS, o.L1MS, o.SelfMS, o.L2MS, o.ServerMS, 100*o.Explained)
		if o.Explained < 0.85 || o.Explained > 1.15 {
			fmt.Fprintf(w, "  WARNING: %s: atserve's share plus the replayed layers explain %.0f%% of the client-seen p50 (outside 85-115%%)\n", o.Kind, 100*o.Explained)
		}
	}
}
