package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"atmatrix/internal/core"
	"atmatrix/internal/expr"
	"atmatrix/internal/gen"
	"atmatrix/internal/mat"
	"atmatrix/internal/mmio"
	"atmatrix/internal/numa"
)

// The fixed configuration. Every atserve the benchmark starts, and every
// in-process reference and replay, runs with exactly this core.Config.
//
// b_atomic = 64 is 1024·scale at scale 1/16 (what exp.Options.Config and
// EXPERIMENTS.md use). Without it the host decides: this container's sysfs
// reports a 260 MiB L3, from which core.DefaultConfig derives b_atomic =
// 2048, and every 1/16-scale Table I matrix becomes a single tile — the
// adaptive path the paper is about would never run. Two simulated sockets
// keep the two-level (inter-tile × intra-tile) scheduling and round-robin
// tile-row homes alive; -verify 2 is the documented integrity configuration.
const (
	benchScale   = 1.0 / 16
	ingestScale  = 1.0 / 32 // ingest_store's R2-class matrices: 696², so a cycle is ~0.3 s and a 15 s window holds ~50
	benchBAtomic = 64
	benchSockets = 2
	benchVerify  = 2
	panelWidth   = 8 // columns of the dense operand x of powvec
)

func benchCores() int {
	if c := runtime.NumCPU() / 2; c > 1 {
		return c
	}
	return 1
}

func benchConfig() core.Config {
	cfg := core.PaperConfig()
	cfg.BAtomic = benchBAtomic
	cfg.Topology = numa.Topology{Sockets: benchSockets, CoresPerSocket: benchCores()}
	return cfg
}

// serverFlags is benchConfig spelled as atserve flags.
func serverFlags() []string {
	return []string{
		"-paper", "-b-atomic", strconv.Itoa(benchBAtomic),
		"-sockets", strconv.Itoa(benchSockets), "-cores", strconv.Itoa(benchCores()),
		"-verify", strconv.Itoa(benchVerify),
	}
}

func benchMultOptions() core.MultOptions {
	opts := core.DefaultMultOptions()
	opts.Verify = benchVerify
	return opts
}

// opType is what a request asks the server to do.
type opType int

const (
	opMultiply opType = iota // POST /v1/multiply {a,b[,store]}
	opEval                   // POST /v1/eval {expr}
	opPut                    // PUT /v1/matrices?name=&format= with the matrix as body
	opDelete                 // DELETE /v1/matrices/{name}
)

// reference is the answer the driver computed in-process for one request.
type reference struct {
	Rows, Cols int
	NNZ, Bytes int64
}

// step is one request of a workload's cycle. Steps that share Kind are the
// same request kind (the three deletes of ingest_store); statistics are kept
// per kind.
type step struct {
	Kind  string
	Op    opType
	A, B  string // multiply operands (catalog names)
	Store string // multiply: admit the result under this name
	Expr  string // eval
	Name  string // put/delete target
	Put   *operand
	Want  reference
}

// hasResult reports whether the response carries rows/cols/nnz/bytes of a
// computed product (the kinds result_bytes_per_nnz is taken over).
func (s *step) hasResult() bool { return s.Op == opMultiply || s.Op == opEval }

// operand is one generated matrix: the bytes the server is sent, and the
// in-process partition the reference and the replay use.
type operand struct {
	Name    string
	Format  string // upload format: "coo" (binary COO) or "mtx" (MatrixMarket)
	Payload []byte
	M       *core.ATMatrix
}

// workload is one set of inputs: the operands loaded during set-up and the
// ordered cycle of requests repeated during the measured window.
type workload struct {
	Name     string
	Why      string
	Operands []*operand // uploaded during set-up, in order
	Cycle    []step
	Durable  bool  // start atserve with -data-dir
	Budget   int64 // -budget (0 = unlimited)

	mats   map[string]*core.ATMatrix // every in-process matrix by catalog name, derived ones included
	GenS   float64                   // operand generation + encoding
	RefS   float64                   // reference computation and its checks
	nnzSum int64                     // ingest_store: nnz of the three matrices mult_store leaves on disk
}

// kindSteps returns the first step of every request kind, in cycle order.
func (w *workload) kindSteps() []*step {
	var out []*step
	seen := map[string]bool{}
	for i := range w.Cycle {
		if k := w.Cycle[i].Kind; !seen[k] {
			seen[k] = true
			out = append(out, &w.Cycle[i])
		}
	}
	return out
}

// kinds returns the request-kind names in cycle order, each once.
func (w *workload) kinds() []string {
	var out []string
	for _, st := range w.kindSteps() {
		out = append(out, st.Kind)
	}
	return out
}

type workloadDef struct {
	Name, Why string
	build     func(b *builder) error
}

// workloadDefs lists the workloads; names are final (later issues cite them).
var workloadDefs = []workloadDef{
	{"mult_dense", "A*A for R1, R2, R3 (35-92 mixed tiles): dense and mixed kernels, JIT conversions and cost-model decisions do the work; HTTP and estimation are noise. The paper's headline case.", buildMultDense},
	{"mult_sparse", "A*A for single-tile hypersparse R7, R8, R9 and skewed R-MAT G9: SpGEMM, density estimation, finalize and per-request fixed cost dominate; dense kernels and conversions do nothing.", buildMultSparse},
	{"eval_chain", "POST /v1/eval of R9*R9*R9, pow(G9,10)*x and 0.5*R8'*R8+0.5*R8: parse, plan, fused panel and row-stream execution; add and transpose appear in no other workload.", buildEvalChain},
	{"ingest_store", "Durable, budgeted server: COO and MatrixMarket uploads, a stored product, a product that reloads a spilled operand, deletes. Parsing, partitioning, checksums, .atm write-through, spill are the work.", buildIngestStore},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, d := range workloadDefs {
		if d.Name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// builder generates a workload's operands from the seed and computes the
// references.
type builder struct {
	w    *workload
	cfg  core.Config
	seed int64
}

// buildWorkload makes the named workload's inputs from seed: the same seed
// gives the same bytes.
func buildWorkload(def workloadDef, seed int64, cfg core.Config, wrongRef bool) (*workload, error) {
	b := &builder{
		w:    &workload{Name: def.Name, Why: def.Why, mats: map[string]*core.ATMatrix{}},
		cfg:  cfg,
		seed: seed,
	}
	if err := def.build(b); err != nil {
		return nil, fmt.Errorf("building workload %s: %w", def.Name, err)
	}
	if wrongRef { // test hook: corrupt one reference
		b.w.Cycle[0].Want.NNZ++
	}
	return b.w, nil
}

// tableMatrix generates the Table I stand-in id at a linear scale. The
// generator seed is the spec's own offset plus 1000·seed, so every (spec,
// seed) pair is distinct; variant separates several matrices of one class.
func tableMatrix(id string, seed, variant int64, scale float64) (*mat.COO, error) {
	s, err := gen.Lookup(id)
	if err != nil {
		return nil, err
	}
	s.Seed += 1000*seed + 50*variant
	return s.Generate(scale)
}

// densePanel is the n×panelWidth dense operand of powvec, fully populated.
func (b *builder) densePanel(n int) *mat.COO {
	rng := rand.New(rand.NewSource(7 + 1000*b.seed))
	x := mat.NewCOO(n, panelWidth)
	for r := 0; r < n; r++ {
		for c := 0; c < panelWidth; c++ {
			x.Append(r, c, rng.Float64())
		}
	}
	return x
}

// operand encodes coo in the upload format and partitions it in-process.
func (b *builder) operand(name, format string, coo *mat.COO) (*operand, error) {
	t0 := time.Now()
	var buf bytes.Buffer
	var err error
	if format == "mtx" {
		err = mmio.WriteMatrixMarket(&buf, coo)
	} else {
		err = mmio.WriteBinary(&buf, coo)
	}
	if err != nil {
		return nil, fmt.Errorf("encoding %s: %w", name, err)
	}
	b.w.GenS += time.Since(t0).Seconds()
	t0 = time.Now()
	m, _, err := core.Partition(coo, b.cfg)
	if err != nil {
		return nil, fmt.Errorf("partitioning %s: %w", name, err)
	}
	b.w.RefS += time.Since(t0).Seconds()
	b.w.mats[name] = m
	return &operand{Name: name, Format: format, Payload: buf.Bytes(), M: m}, nil
}

// baseOperands generates the listed Table I ids as set-up operands.
func (b *builder) baseOperands(ids ...string) error {
	for _, id := range ids {
		t0 := time.Now()
		coo, err := tableMatrix(id, b.seed, 0, benchScale)
		if err != nil {
			return err
		}
		b.w.GenS += time.Since(t0).Seconds()
		op, err := b.operand(id, "coo", coo)
		if err != nil {
			return err
		}
		b.w.Operands = append(b.w.Operands, op)
	}
	return nil
}

func refOf(m *core.ATMatrix) reference {
	return reference{Rows: m.Rows, Cols: m.Cols, NNZ: m.NNZ(), Bytes: m.Bytes()}
}

// refProduct computes A·B exactly as the server will (same config, same
// options) and checks the reference itself: Freivalds with a seed of the
// driver's own, and the non-zero count of the plain single-representation
// SpGEMM.
func (b *builder) refProduct(aName, bName string) (*core.ATMatrix, error) {
	t0 := time.Now()
	defer func() { b.w.RefS += time.Since(t0).Seconds() }()
	a, bm := b.w.mats[aName], b.w.mats[bName]
	c, _, err := core.MultiplyOpt(a, bm, b.cfg, benchMultOptions())
	if err != nil {
		return nil, fmt.Errorf("reference %s*%s: %w", aName, bName, err)
	}
	if err := core.VerifyProduct(a, bm, c, benchVerify, 12345+b.seed); err != nil {
		return nil, fmt.Errorf("reference %s*%s fails verification: %w", aName, bName, err)
	}
	plain, err := core.MulSpSpSp(a.ToCSR(), bm.ToCSR(), b.cfg)
	if err != nil {
		return nil, fmt.Errorf("plain reference %s*%s: %w", aName, bName, err)
	}
	if plain.NNZ() != c.NNZ() {
		return nil, fmt.Errorf("reference %s*%s: ATMULT nnz %d, plain SpGEMM nnz %d", aName, bName, c.NNZ(), plain.NNZ())
	}
	return c, nil
}

func (b *builder) squareSteps(ids ...string) error {
	for _, id := range ids {
		c, err := b.refProduct(id, id)
		if err != nil {
			return err
		}
		b.w.Cycle = append(b.w.Cycle, step{Kind: id, Op: opMultiply, A: id, B: id, Want: refOf(c)})
	}
	return nil
}

func buildMultDense(b *builder) error {
	if err := b.baseOperands("R1", "R2", "R3"); err != nil {
		return err
	}
	return b.squareSteps("R1", "R2", "R3")
}

func buildMultSparse(b *builder) error {
	if err := b.baseOperands("R7", "R8", "R9", "G9"); err != nil {
		return err
	}
	return b.squareSteps("R7", "R8", "R9", "G9")
}

// evalExprs are the eval_chain request kinds.
var evalExprs = []struct{ Kind, Expr string }{
	{"chain3", "R9*R9*R9"},            // row-stream fusion
	{"powvec", "pow(G9,10)*x"},        // panel strategy
	{"gram_add", "0.5*R8'*R8+0.5*R8"}, // transpose + scale + add
}

func buildEvalChain(b *builder) error {
	if err := b.baseOperands("R9", "G9", "R8"); err != nil {
		return err
	}
	t0 := time.Now()
	x := b.densePanel(b.w.mats["G9"].Rows)
	b.w.GenS += time.Since(t0).Seconds()
	op, err := b.operand("x", "coo", x)
	if err != nil {
		return err
	}
	b.w.Operands = append(b.w.Operands, op)
	for _, e := range evalExprs {
		t0 := time.Now()
		out, plan, _, err := expr.Eval(e.Expr, b.w.mats, b.cfg, expr.Options{Mult: core.DefaultMultOptions()})
		if err != nil {
			return fmt.Errorf("reference %s: %w", e.Expr, err)
		}
		if err := expr.Verify(plan.Expr, b.w.mats, out, benchVerify, 12345+b.seed); err != nil {
			return fmt.Errorf("reference %s fails verification: %w", e.Expr, err)
		}
		b.w.RefS += time.Since(t0).Seconds()
		b.w.Cycle = append(b.w.Cycle, step{Kind: e.Kind, Op: opEval, Expr: e.Expr, Want: refOf(out)})
	}
	return nil
}

// buildIngestStore sizes the server's budget so that every cycle spills and
// reloads, deterministically. B0 is loaded once during set-up and never
// deleted. In a cycle T1 and T2 are uploaded, TP = T1·T2 is stored while
// both operands are leased — so admitting it must spill the only unleased
// resident matrix, B0 — and TP·B0 then has to reload B0 (checksum-verified)
// and spills T1 to make room. The budget holds everything but half of B0.
func buildIngestStore(b *builder) error {
	b.w.Durable = true
	var ops [3]*operand
	for i, o := range []struct{ name, format string }{{"B0", "coo"}, {"T1", "coo"}, {"T2", "mtx"}} {
		t0 := time.Now()
		coo, err := tableMatrix("R2", b.seed, int64(i+1), ingestScale)
		if err != nil {
			return err
		}
		b.w.GenS += time.Since(t0).Seconds()
		if ops[i], err = b.operand(o.name, o.format, coo); err != nil {
			return err
		}
	}
	b0, t1, t2 := ops[0], ops[1], ops[2]
	b.w.Operands = []*operand{b0}

	prod, err := b.refProduct("T1", "T2")
	if err != nil {
		return err
	}
	t0 := time.Now()
	tp, _, err := prod.Repartition(b.cfg) // what the service stores
	if err != nil {
		return fmt.Errorf("repartitioning TP: %w", err)
	}
	b.w.RefS += time.Since(t0).Seconds()
	b.w.mats["TP"] = tp
	stored := refOf(prod)
	stored.Bytes = tp.Bytes() // the response reports the stored layout's bytes
	read, err := b.refProduct("TP", "B0")
	if err != nil {
		return err
	}
	b.w.Budget = t1.M.Bytes() + t2.M.Bytes() + tp.Bytes() + b0.M.Bytes()/2
	b.w.nnzSum = t1.M.NNZ() + t2.M.NNZ() + tp.NNZ()
	b.w.Cycle = []step{
		{Kind: "put_coo", Op: opPut, Name: "T1", Put: t1, Want: refOf(t1.M)},
		{Kind: "put_mtx", Op: opPut, Name: "T2", Put: t2, Want: refOf(t2.M)},
		{Kind: "mult_store", Op: opMultiply, A: "T1", B: "T2", Store: "TP", Want: stored},
		{Kind: "mult_read", Op: opMultiply, A: "TP", B: "B0", Want: refOf(read)},
		{Kind: "delete", Op: opDelete, Name: "T1"},
		{Kind: "delete", Op: opDelete, Name: "T2"},
		{Kind: "delete", Op: opDelete, Name: "TP"},
	}
	return nil
}
