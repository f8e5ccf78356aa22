package atmatrix

// Expression-engine benchmarks: the fused executor against the
// materialize-every-stage baseline on the two workloads the engine was
// built for — an association-optimized 3-term sparse chain and the
// pow(A,k)·x power iteration. `make bench-eval` serializes these to
// BENCH_eval.json; the acceptance bar is fused winning both wall time
// and peak intermediate bytes. The peak is surfaced as a custom
// peakB/op metric so benchjson can record it next to ns/op.

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"atmatrix/internal/core"
	"atmatrix/internal/expr"
	"atmatrix/internal/gen"
	"atmatrix/internal/kernels"
	"atmatrix/internal/mat"
	"atmatrix/internal/mmio"
	"atmatrix/internal/numa"
	"atmatrix/internal/rmat"
)

// evalFixture builds the shared operand set for one benchmark size:
// three n×n R-MAT matrices and an n×8 dense panel for the power
// iteration.
func evalFixture(b *testing.B, n, nnz int) (map[string]*core.ATMatrix, core.Config) {
	b.Helper()
	cfg := fixtureCfg
	bind := map[string]*core.ATMatrix{}
	params, err := rmat.PaperParams(1)
	if err != nil {
		params = rmat.Uniform()
	}
	for i, name := range []string{"A", "B", "C"} {
		coo, err := rmat.Generate(n, nnz, params, int64(40+i))
		if err != nil {
			b.Fatal(err)
		}
		m, _, err := core.Partition(coo, cfg)
		if err != nil {
			b.Fatal(err)
		}
		bind[name] = m
	}
	rng := rand.New(rand.NewSource(7))
	bind["x"] = core.FromDense(mat.RandomDense(rng, n, 8), cfg.BAtomic)
	return bind, cfg
}

// runEval executes src once per iteration and reports the executor's
// intermediate high-water mark alongside the timing.
func runEval(b *testing.B, src string, bind map[string]*core.ATMatrix, cfg core.Config, opts expr.Options) {
	b.Helper()
	var peak int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, stats, err := expr.Eval(src, bind, cfg, opts)
		if err != nil {
			b.Fatal(err)
		}
		if stats.PeakIntermediateBytes > peak {
			peak = stats.PeakIntermediateBytes
		}
	}
	b.ReportMetric(float64(peak), "peakB/op")
}

// BenchmarkEval_Chain3: A*B*C over square sparse operands. Fused runs
// the planner's row-stream strategy (chained Gustavson per tile-row,
// intermediates never leave the SPA); materialized builds and
// repartitions a full AT MATRIX between steps.
func BenchmarkEval_Chain3(b *testing.B) {
	// Average degree 2: the road-network-sparse regime where intermediate
	// materialization (partition + COO staging + repartition) dominates
	// the flops and row-streaming pays off. Denser chains flip toward the
	// materialized tile kernels, which is exactly what the planner's
	// cost gate decides per expression.
	bind, cfg := evalFixture(b, 4096, 4096*2)
	b.Run("fused", func(b *testing.B) {
		runEval(b, "A*B*C", bind, cfg, expr.Options{})
	})
	b.Run("materialized", func(b *testing.B) {
		runEval(b, "A*B*C", bind, cfg, expr.Options{Materialize: true})
	})
}

// BenchmarkEval_PowVec: pow(A,10)*x, the power-iteration shape. Fused
// applies A ten times to a double-buffered n×8 panel; materialized
// computes the (rapidly densifying) matrix power first and multiplies
// the panel once at the end.
func BenchmarkEval_PowVec(b *testing.B) {
	bind, cfg := evalFixture(b, 512, 512*8)
	b.Run("fused", func(b *testing.B) {
		runEval(b, "pow(A,10)*x", bind, cfg, expr.Options{})
	})
	b.Run("materialized", func(b *testing.B) {
		runEval(b, "pow(A,10)*x", bind, cfg, expr.Options{Materialize: true})
	})
}

// The three benchmarks below time layout building where a server request
// pays for it: a sum inside an expression, the repartition of a product
// that is stored, and the partition of an upload. They run at the
// benchmark server's configuration (atload: -paper -b-atomic 64 -sockets 2
// -cores 1) on its operands (Table I stand-ins, seed 1).

func serverCfg() core.Config {
	cfg := core.PaperConfig()
	cfg.BAtomic = 64
	cfg.Topology = numa.Topology{Sockets: 2, CoresPerSocket: 1}
	return cfg
}

// serverStandIn generates the stand-in id as atload does for seed 1.
func serverStandIn(b *testing.B, id string, variant int64, scale float64) *mat.COO {
	b.Helper()
	s, err := gen.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	s.Seed += 1000 + 50*variant
	coo, err := s.Generate(scale)
	if err != nil {
		b.Fatal(err)
	}
	return coo
}

func mustPartition(b *testing.B, coo *mat.COO, cfg core.Config) *core.ATMatrix {
	b.Helper()
	m, _, err := core.Partition(coo, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkEval_GramAdd: 0.5*A'*A+0.5*A on the R8 stand-in — eval_chain's
// gram_add request; the sum of the gram product and the operand is built
// by core.Add.
func BenchmarkEval_GramAdd(b *testing.B) {
	cfg := serverCfg()
	bind := map[string]*core.ATMatrix{"A": mustPartition(b, serverStandIn(b, "R8", 0, 1.0/16), cfg)}
	b.ReportAllocs()
	const src = "0.5*A'*A+0.5*A"
	if _, _, _, err := expr.Eval(src, bind, cfg, expr.Options{}); err != nil { // first-use costs stay out of allocs/op
		b.Fatal(err)
	}
	runEval(b, src, bind, cfg, expr.Options{})
}

// BenchmarkEval_StoreRepartition: Repartition of T1·T2 for two R2-class
// matrices at 1/32 — what ingest_store's mult_store request does to its
// product before the catalog takes it (≈ 92 % dense, band tiles → one).
func BenchmarkEval_StoreRepartition(b *testing.B) {
	cfg := serverCfg()
	t1 := mustPartition(b, serverStandIn(b, "R2", 1, 1.0/32), cfg)
	t2 := mustPartition(b, serverStandIn(b, "R2", 2, 1.0/32), cfg)
	prod, _, err := core.Multiply(t1, t2, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := prod.Repartition(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEval_Repartition: Repartition of the squares of R9 and G9 at
// 1/16 (mult_sparse's operands) — the sparse and mixed cuts beside
// StoreRepartition's dense one. R9² is one sparse tile; G9² is sparse and
// dense band tiles, cut into a mix of both.
func BenchmarkEval_Repartition(b *testing.B) {
	cfg := serverCfg()
	for _, id := range []string{"R9", "G9"} {
		a := mustPartition(b, serverStandIn(b, id, 0, 1.0/16), cfg)
		sq, _, err := core.Multiply(a, a, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(id+"sq", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := sq.Repartition(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEval_Upload: Partition of an upload whose entries arrive in no
// particular order — the dense-ish R2 and the hypersparse R9 stand-in.
func BenchmarkEval_Upload(b *testing.B) {
	cfg := serverCfg()
	for _, id := range []string{"R2", "R9"} {
		coo := serverStandIn(b, id, 0, 1.0/16)
		rand.New(rand.NewSource(3)).Shuffle(len(coo.Ent), func(i, j int) {
			coo.Ent[i], coo.Ent[j] = coo.Ent[j], coo.Ent[i]
		})
		b.Run(id, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Partition(coo, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEval_Verify: the Freivalds check (-verify 2) of A·A as the
// server runs it after a multiply — the product is built once, then
// verified through the team sweeper — on the benchmark's largest dense
// (R3), hypersparse (R9) and skewed (G9) operands.
func BenchmarkEval_Verify(b *testing.B) {
	cfg := serverCfg()
	for _, id := range []string{"G9", "R3", "R9"} {
		a := mustPartition(b, serverStandIn(b, id, 0, 1.0/16), cfg)
		c, _, err := core.Multiply(a, a, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(id, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := core.VerifyProductOn(core.TeamSweeper(nil, cfg, 0), a, a, c, 2, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEval_VerifyExpr: the expression-level check of eval_chain's
// powvec request, pow(G9,10)*x — eleven panel sweeps where the
// one-vector-at-a-time walk made thirty-three.
func BenchmarkEval_VerifyExpr(b *testing.B) {
	cfg := serverCfg()
	g9 := mustPartition(b, serverStandIn(b, "G9", 0, 1.0/16), cfg)
	bind := map[string]*core.ATMatrix{
		"G9": g9,
		"x":  core.FromDense(mat.RandomDense(rand.New(rand.NewSource(7)), g9.Rows, 8), cfg.BAtomic),
	}
	out, plan, _, err := expr.Eval("pow(G9,10)*x", bind, cfg, expr.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("powvec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := expr.VerifyOn(core.TeamSweeper(nil, cfg, 0), plan.Expr, bind, out, 2, int64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEval_Plan: expr.PlanExpr alone — the density estimates, the
// association DP or the right-to-left panel pricing, the row-stream gate —
// for eval_chain's three requests on the seed-1 stand-ins, parsed once.
func BenchmarkEval_Plan(b *testing.B) {
	cfg := serverCfg()
	bind := map[string]*core.ATMatrix{}
	for _, id := range []string{"R8", "R9", "G9"} {
		bind[id] = mustPartition(b, serverStandIn(b, id, 0, 1.0/16), cfg)
	}
	bind["x"] = core.FromDense(mat.RandomDense(rand.New(rand.NewSource(7)), bind["G9"].Rows, 8), cfg.BAtomic)
	for _, c := range []struct{ name, src string }{
		{"chain3", "R9*R9*R9"},
		{"powvec", "pow(G9,10)*x"},
		{"gram_add", "0.5*R8'*R8+0.5*R8"},
	} {
		node, err := expr.Parse(c.src)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := expr.PlanExpr(node, bind, cfg, expr.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEval_Assemble: PartitionRows of the rows of R9·R9, filled in
// by row ranges cut over R9 — what a row-streamed chain pays to turn its
// rows into an AT MATRIX beyond computing them: the stage's tasks and join,
// the block counts and the quadtree over a grid that is almost empty.
func BenchmarkEval_Assemble(b *testing.B) {
	cfg := serverCfg()
	r9 := mustPartition(b, serverStandIn(b, "R9", 0, 1.0/16), cfg)
	sq, _, err := core.Multiply(r9, r9, cfg)
	if err != nil {
		b.Fatal(err)
	}
	csr := sq.ToCSR()
	fill := func(_ *kernels.Scratch, lo, hi int, blk *core.RowBlock) {
		for r := lo; r < hi; r++ {
			blk.NNZ = append(blk.NNZ, int32(csr.RowPtr[r+1]-csr.RowPtr[r]))
		}
		blk.Col = append(blk.Col, csr.ColIdx[csr.RowPtr[lo]:csr.RowPtr[hi]]...)
		blk.Val = append(blk.Val, csr.Val[csr.RowPtr[lo]:csr.RowPtr[hi]]...)
	}
	b.Run("R9sq", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := core.PartitionRows(nil, cfg, 0, csr.Rows, csr.Cols, r9, fill); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEval_Codec: the binary codec every stream goes through — an .atm
// stream written and read back (catalog write-through and reload, shard
// bodies), the binary COO upload written and read, the per-tile seals
// the catalog and the workers verify, and the MatrixMarket upload read —
// on the dense R3, the hypersparse R9 and ingest_store's T1 (the R2
// stand-in at 1/32).
func BenchmarkEval_Codec(b *testing.B) {
	cfg := serverCfg()
	type operand struct {
		coo           *mat.COO
		m             *core.ATMatrix
		atm, bin, mtx []byte
	}
	ops := map[string]*operand{}
	for _, c := range []struct {
		id, src string
		variant int64
		scale   float64
	}{{"R3", "R3", 0, 1.0 / 16}, {"R9", "R9", 0, 1.0 / 16}, {"T1", "R2", 1, 1.0 / 32}} {
		op := &operand{coo: serverStandIn(b, c.src, c.variant, c.scale)}
		op.m = mustPartition(b, op.coo, cfg)
		var atm, bin, mtx bytes.Buffer
		if _, err := op.m.WriteTo(&atm); err != nil {
			b.Fatal(err)
		}
		if err := mmio.WriteBinary(&bin, op.coo); err != nil {
			b.Fatal(err)
		}
		if err := mmio.WriteMatrixMarket(&mtx, op.coo); err != nil {
			b.Fatal(err)
		}
		op.atm, op.bin, op.mtx = atm.Bytes(), bin.Bytes(), mtx.Bytes()
		ops[c.id] = op
	}
	for _, step := range []struct {
		name string
		run  func(*operand) error
	}{
		{"atm_write", func(op *operand) error { _, err := op.m.WriteTo(io.Discard); return err }},
		{"atm_read", func(op *operand) error { _, err := core.ReadATMatrix(bytes.NewReader(op.atm)); return err }},
		{"coo_write", func(op *operand) error { return mmio.WriteBinary(io.Discard, op.coo) }},
		{"coo_read", func(op *operand) error { _, err := mmio.ReadBinary(bytes.NewReader(op.bin)); return err }},
		{"seal", func(op *operand) error { op.m.SealChecksums(); return nil }},
		{"mtx_read", func(op *operand) error { _, err := mmio.ReadMatrixMarket(bytes.NewReader(op.mtx)); return err }},
	} {
		for _, id := range []string{"R3", "R9", "T1"} {
			op := ops[id]
			b.Run(step.name+"/"+id, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := step.run(op); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// benchMultiply times MultiplyOpt of a·b as the server runs it: default
// options with two Freivalds rounds, at the benchmark server's
// configuration. With recycle, every product is recycled once done, as the
// server does with a multiply's product once its reply is built, so each
// product's dense targets reuse the buffers of the one before; without it
// the products are kept, as a library caller does, and every dense target
// is fresh memory. One untimed product first puts the pool in that steady
// state, so allocs/op does not depend on b.N.
func benchMultiply(b *testing.B, x, y *core.ATMatrix, recycle bool) {
	cfg, opts := serverCfg(), core.DefaultMultOptions()
	opts.Verify = 2
	b.ReportAllocs()
	for i := -1; i < b.N; i++ {
		if i == 0 {
			b.ResetTimer()
		}
		c, _, err := core.MultiplyOpt(x, y, cfg, opts)
		if err != nil {
			b.Fatal(err)
		}
		if recycle {
			core.Recycle(c)
		}
	}
}

// BenchmarkEval_MultDense: mult_dense's three requests, A·A on the R1, R2
// and R3 stand-ins — dense targets fed by DSpD and SpSpD windows. R3-kept
// is R3 for a caller that keeps its products. cycle is the workload's own
// order, R1 → R2 → R3 per op, every product recycled as the server recycles
// it; it reports how many dense targets per cycle the result pool served
// (hits/op) and how many were made fresh (misses/op), so a pool that
// empties between products shows.
func BenchmarkEval_MultDense(b *testing.B) {
	var cycle []*core.ATMatrix
	for _, id := range []string{"R1", "R2", "R3"} {
		a := mustPartition(b, serverStandIn(b, id, 0, 1.0/16), serverCfg())
		cycle = append(cycle, a)
		b.Run(id, func(b *testing.B) { benchMultiply(b, a, a, true) })
		if id == "R3" {
			b.Run(id+"-kept", func(b *testing.B) { benchMultiply(b, a, a, false) })
		}
	}
	b.Run("cycle", func(b *testing.B) {
		cfg, opts := serverCfg(), core.DefaultMultOptions()
		opts.Verify = 2
		b.ReportAllocs()
		var start core.RecycleStats
		for i := -1; i < b.N; i++ {
			if i == 0 { // one untimed cycle puts the pool in its steady state
				start = core.Recycled()
				b.ResetTimer()
			}
			for _, a := range cycle {
				c, _, err := core.MultiplyOpt(a, a, cfg, opts)
				if err != nil {
					b.Fatal(err)
				}
				core.Recycle(c)
			}
		}
		end := core.Recycled()
		b.ReportMetric(float64(end.Hits-start.Hits)/float64(b.N), "hits/op")
		b.ReportMetric(float64(end.Misses-start.Misses)/float64(b.N), "misses/op")
	})
}

// BenchmarkEval_IngestProducts: ingest_store's two products on the R2
// stand-in at 1/32 (B0, T1, T2 are variants 1–3): mult_store's T1·T2, and
// mult_read's TP·B0, where TP is T1·T2 repartitioned — one 696-row dense
// tile, the tall-window case of DSpD.
func BenchmarkEval_IngestProducts(b *testing.B) {
	cfg := serverCfg()
	b0 := mustPartition(b, serverStandIn(b, "R2", 1, 1.0/32), cfg)
	t1 := mustPartition(b, serverStandIn(b, "R2", 2, 1.0/32), cfg)
	t2 := mustPartition(b, serverStandIn(b, "R2", 3, 1.0/32), cfg)
	prod, _, err := core.Multiply(t1, t2, cfg)
	if err != nil {
		b.Fatal(err)
	}
	tp, _, err := prod.Repartition(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("store", func(b *testing.B) { benchMultiply(b, t1, t2, true) })
	b.Run("read", func(b *testing.B) { benchMultiply(b, tp, b0, true) })
}

// BenchmarkEval_MultSparse: mult_sparse's four requests, A·A on the R7, R8,
// R9 and G9 stand-ins — sparse targets, where SpGEMM and the row pass that
// finishes every result row do the work.
func BenchmarkEval_MultSparse(b *testing.B) {
	for _, id := range []string{"R7", "R8", "R9", "G9"} {
		a := mustPartition(b, serverStandIn(b, id, 0, 1.0/16), serverCfg())
		b.Run(id, func(b *testing.B) { benchMultiply(b, a, a, true) })
	}
}
