package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"atmatrix/internal/faultinject"
	"atmatrix/internal/gen"
	"atmatrix/internal/mat"
	"atmatrix/internal/numa"
	"atmatrix/internal/sched"
)

// partitionPair builds two partitioned random operands for verification
// tests.
func partitionPair(t *testing.T, cfg Config, seed int64, n, nnz int) (*ATMatrix, *ATMatrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	am, _, err := Partition(mat.RandomCOO(rng, n, n, nnz), cfg)
	if err != nil {
		t.Fatal(err)
	}
	bm, _, err := Partition(mat.RandomCOO(rng, n, n, nnz), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return am, bm
}

func TestVerifyProductAcceptsCorrectResult(t *testing.T) {
	cfg := testConfig()
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 6; trial++ {
		n := 16 + rng.Intn(120)
		am, bm := partitionPair(t, cfg, int64(100+trial), n, n*n/4+1)
		cm, _, err := MultiplyOpt(am, bm, cfg, DefaultMultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyProduct(am, bm, cm, 4, int64(trial)); err != nil {
			t.Fatalf("trial %d: correct product rejected: %v", trial, err)
		}
	}
}

func TestVerifyProductCatchesCorruption(t *testing.T) {
	cfg := testConfig()
	am, bm := partitionPair(t, cfg, 7, 96, 2500)
	cm, _, err := MultiplyOpt(am, bm, cfg, DefaultMultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !cm.FlipOneBit() {
		t.Fatal("no value to corrupt in result")
	}
	err = VerifyProduct(am, bm, cm, 4, 1)
	if !errors.Is(err, ErrVerifyFailed) {
		t.Fatalf("corrupted product verified: %v, want ErrVerifyFailed", err)
	}
	var ve *VerifyError
	if !errors.As(err, &ve) {
		t.Fatalf("error %v carries no *VerifyError detail", err)
	}
}

// TestVerifyInjectedBitflipFailsMultiply is the end-to-end chaos path: an
// armed bitflip rule at the result-accumulation site corrupts the product,
// and MultiplyOpt with Verify on returns ErrVerifyFailed instead of the
// wrong matrix.
func TestVerifyInjectedBitflipFailsMultiply(t *testing.T) {
	cfg := testConfig()
	am, bm := partitionPair(t, cfg, 8, 80, 2000)
	defer faultinject.Enable(1, faultinject.Rule{
		Site: "core.mult.result", Kind: faultinject.KindBitflip,
	})()
	opts := DefaultMultOptions()
	opts.Verify = 2
	_, _, err := MultiplyOpt(am, bm, cfg, opts)
	if !errors.Is(err, ErrVerifyFailed) {
		t.Fatalf("multiply with injected bitflip: %v, want ErrVerifyFailed", err)
	}
	// The rule fired once; the retry (a fresh multiply) is clean and
	// verification passes, recording its cost in the stats.
	cm, stats, err := MultiplyOpt(am, bm, cfg, opts)
	if err != nil {
		t.Fatalf("multiply after fault window: %v", err)
	}
	if cm == nil || stats.VerifyTime <= 0 {
		t.Fatalf("clean verified multiply: stats.VerifyTime = %v, want > 0", stats.VerifyTime)
	}
}

func TestVerifyShapeMismatch(t *testing.T) {
	cfg := testConfig()
	am, bm := partitionPair(t, cfg, 9, 32, 200)
	rng := rand.New(rand.NewSource(99))
	wide, _, err := Partition(mat.RandomCOO(rng, 32, 48, 200), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyProduct(am, bm, wide, 1, 1); err == nil || errors.Is(err, ErrVerifyFailed) {
		t.Fatalf("shape mismatch: %v, want a plain error", err)
	}
}

func TestChecksumSealAndVerify(t *testing.T) {
	cfg := testConfig()
	am, _ := partitionPair(t, cfg, 10, 64, 1200)
	if am.Sealed() {
		t.Fatal("matrix sealed before SealChecksums")
	}
	if bad := am.VerifyChecksums(); bad != -1 {
		t.Fatalf("unsealed VerifyChecksums = %d, want -1", bad)
	}
	am.SealChecksums()
	if !am.Sealed() {
		t.Fatal("matrix not sealed after SealChecksums")
	}
	if bad := am.VerifyChecksums(); bad != -1 {
		t.Fatalf("intact matrix VerifyChecksums = %d, want -1", bad)
	}
	if !am.FlipOneBit() {
		t.Fatal("no value to corrupt")
	}
	if bad := am.VerifyChecksums(); bad < 0 {
		t.Fatal("flipped bit not detected by VerifyChecksums")
	}
	// Re-sealing accepts the current content again (the repair-by-reload
	// path seals the fresh copy).
	am.SealChecksums()
	if bad := am.VerifyChecksums(); bad != -1 {
		t.Fatalf("re-sealed VerifyChecksums = %d, want -1", bad)
	}
}

// The oracle: Freivalds one vector at a time, as VerifyProduct ran it
// before the probes travelled as a panel — 2 + 3k serial matrix-vector
// products, each tile row summed left to right.

// oracleMulVec computes dst = M·x, or |M|·x with absVal.
func oracleMulVec(m *ATMatrix, x, dst []float64, absVal bool) {
	clear(dst)
	for _, t := range m.Tiles {
		for r := 0; r < t.Rows; r++ {
			var sum float64
			if t.Kind == mat.Sparse {
				lo, hi := t.Sp.RowRange(r)
				for p := lo; p < hi; p++ {
					v := t.Sp.Val[p]
					if absVal {
						v = math.Abs(v)
					}
					sum += v * x[t.Col0+int(t.Sp.ColIdx[p])]
				}
			} else {
				for cidx, v := range t.D.RowSlice(r) {
					if absVal {
						v = math.Abs(v)
					}
					sum += v * x[t.Col0+cidx]
				}
			}
			dst[t.Row0+r] += sum
		}
	}
}

// oracleMulVecTrans computes dst = Mᵀ·x, or |M|ᵀ·x with absVal.
func oracleMulVecTrans(m *ATMatrix, x, dst []float64, absVal bool) {
	clear(dst)
	for _, t := range m.Tiles {
		for r := 0; r < t.Rows; r++ {
			xr := x[t.Row0+r]
			if t.Kind == mat.Sparse {
				lo, hi := t.Sp.RowRange(r)
				for p := lo; p < hi; p++ {
					v := t.Sp.Val[p]
					if absVal {
						v = math.Abs(v)
					}
					dst[t.Col0+int(t.Sp.ColIdx[p])] += v * xr
				}
			} else {
				for cidx, v := range t.D.RowSlice(r) {
					if absVal {
						v = math.Abs(v)
					}
					dst[t.Col0+cidx] += v * xr
				}
			}
		}
	}
}

// oracleRound holds one round's probe x, A·(B·x) and C·x.
type oracleRound struct{ x, z, w []float64 }

// oracleVerify runs all k rounds, returns the magnitude bound |A|·|B|·1,
// every round's vectors and the first failing probe (nil when none).
func oracleVerify(a, b, c *ATMatrix, k int, seed int64) (bound []float64, rounds []oracleRound, first *VerifyError) {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, b.Cols)
	y := make([]float64, b.Rows)
	for i := range x {
		x[i] = 1
	}
	bound = make([]float64, a.Rows)
	oracleMulVec(b, x, y, true)
	oracleMulVec(a, y, bound, true)
	for round := 1; round <= k; round++ {
		r := oracleRound{x: make([]float64, b.Cols), z: make([]float64, a.Rows), w: make([]float64, c.Rows)}
		for i := range r.x {
			r.x[i] = float64(rng.Intn(2)*2 - 1)
		}
		oracleMulVec(b, r.x, y, false)
		oracleMulVec(a, y, r.z, false)
		oracleMulVec(c, r.x, r.w, false)
		rounds = append(rounds, r)
		for i := range r.z {
			tol := 1e-9*bound[i] + 1e-12
			if d := math.Abs(r.z[i] - r.w[i]); (d > tol || math.IsNaN(d)) && first == nil {
				first = &VerifyError{Round: round, Row: i, Got: r.w[i], Want: r.z[i], Tol: tol}
			}
		}
	}
	return bound, rounds, first
}

// sameVerdict fails the test unless err is the oracle's verdict: nil for
// nil, otherwise a *VerifyError naming the same round and row.
func sameVerdict(t *testing.T, what string, err error, want *VerifyError) {
	t.Helper()
	var ve *VerifyError
	switch {
	case want == nil && err != nil:
		t.Errorf("%s: %v, the oracle accepts", what, err)
	case want != nil && !errors.As(err, &ve):
		t.Errorf("%s: %v, the oracle rejects at round %d row %d", what, err, want.Round, want.Row)
	case want != nil && (ve.Round != want.Round || ve.Row != want.Row):
		t.Errorf("%s: rejected at round %d row %d, the oracle at round %d row %d", what, ve.Round, ve.Row, want.Round, want.Row)
	}
}

// nearOracle fails the test unless got is within 1e-12·bound (+ the
// absolute floor of the check) of the oracle's vector.
func nearOracle(t *testing.T, what string, got, want, bound []float64) {
	t.Helper()
	for i := range want {
		if d := math.Abs(got[i] - want[i]); !(d <= 1e-12*bound[i]+1e-12) {
			t.Fatalf("%s: row %d is %g, the oracle has %g (bound %g)", what, i, got[i], want[i], bound[i])
		}
	}
}

// benchStandIn generates the Table I stand-in id as the benchmark does
// (1/16, seed 1).
func benchStandIn(t *testing.T, id string) *mat.COO {
	t.Helper()
	spec, err := gen.Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	spec.Seed += 1000
	coo, err := spec.Generate(1.0 / 16)
	if err != nil {
		t.Fatal(err)
	}
	return coo
}

// benchOperands caches squareProduct's partitioned operands: tests only
// read them.
var benchOperands sync.Map

// squareProduct returns the benchmark's stand-in id, partitioned at the
// benchmark server's configuration and shared between tests, and a fresh
// square of it.
func squareProduct(t *testing.T, id string) (a, c *ATMatrix, cfg Config) {
	t.Helper()
	cfg = benchLayoutConfig()
	cached, ok := benchOperands.Load(id)
	if !ok {
		m, _, err := Partition(benchStandIn(t, id), cfg)
		if err != nil {
			t.Fatal(err)
		}
		cached, _ = benchOperands.LoadOrStore(id, m)
	}
	a = cached.(*ATMatrix)
	c, _, err := MultiplyOpt(a, a, cfg, DefaultMultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return a, c, cfg
}

// TestFreivaldsMatchesOracle pins the integrity claim: for the same seed the
// panel check draws the oracle's probes, computes its vectors to within
// rounding, and returns its verdict — on correct products and on ones with
// a flipped bit, below and above the slab width, on the caller and on the
// teams.
func TestFreivaldsMatchesOracle(t *testing.T) {
	for _, id := range []string{"R1", "R2", "R3", "R7", "R8", "R9", "G9"} {
		a, c, cfg := squareProduct(t, id)
		teams := TeamSweeper(nil, cfg, 0)
		for _, flipped := range []bool{false, true} {
			if flipped && !c.FlipOneBit() {
				t.Fatalf("%s: nothing to corrupt", id)
			}
			for seed := int64(1); seed <= 3; seed++ {
				for _, k := range []int{1, 2, 5} {
					what := fmt.Sprintf("%s flipped=%v seed=%d k=%d", id, flipped, seed, k)
					bound, rounds, first := oracleVerify(a, a, c, k, seed)
					if flipped != (first != nil) {
						t.Fatalf("%s: oracle verdict %v", what, first)
					}
					sameVerdict(t, what+" caller", VerifyProduct(a, a, c, k, seed), first)
					sameVerdict(t, what+" teams", VerifyProductOn(teams, a, a, c, k, seed), first)

					// The panels themselves, slab by slab.
					slab := 0
					err := teams.Freivalds(c, k, seed, 1e-9, func(x Panel) (Panel, error) {
						y, z, w := NewPanel(a.Rows), NewPanel(a.Rows), NewPanel(c.Rows)
						for _, err := range []error{teams.Mul(a, false, x, y), teams.Mul(a, false, y, z), teams.Mul(c, false, x, w)} {
							if err != nil {
								t.Fatal(err)
							}
						}
						nearOracle(t, what+" bound", z.Col(0), bound, bound)
						for j := 1; j <= probeSlab && slab*probeSlab+j <= k; j++ {
							r := rounds[slab*probeSlab+j-1]
							for i, v := range r.x {
								if x.Col(j)[i] != v {
									t.Fatalf("%s: round %d probe differs from the oracle's at %d", what, slab*probeSlab+j, i)
								}
							}
							nearOracle(t, what+" A·(B·x)", z.Col(j), r.z, bound)
							nearOracle(t, what+" C·x", w.Col(j), r.w, bound)
						}
						slab++
						return z, nil
					})
					sameVerdict(t, what+" Freivalds", err, first)
					if want := (k + probeSlab - 1) / probeSlab; first == nil && slab != want {
						t.Fatalf("%s: %d slabs, want %d", what, slab, want)
					}
				}
			}
		}
	}
}

// TestATMatrixMatVec: core's one AT MATRIX × panel kernel computes y = A·x
// on a matrix of dense and sparse tiles — a probe column through A, the
// magnitude column through |A| — as a plain CSR MatVec does.
func TestATMatrixMatVec(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	cfg := testConfig()
	src, err := genHeterogeneous(rng, 160)
	if err != nil {
		t.Fatal(err)
	}
	am, _, err := Partition(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sp, d := am.TileCount(); sp == 0 || d == 0 {
		t.Fatalf("want both tile kinds, got %d sparse and %d dense", sp, d)
	}
	in, out := NewPanel(am.Cols), NewPanel(am.Rows)
	ones, x := in.Col(0), in.Col(1)
	for i := range x {
		ones[i] = 1
		x[i] = rng.Float64()*2 - 1
	}
	if err := (Sweeper{}).Mul(am, false, in, out); err != nil {
		t.Fatal(err)
	}
	csr := src.ToCSR()
	abs := csr.Clone()
	for i, v := range abs.Val {
		abs.Val[i] = math.Abs(v)
	}
	for j, want := range [][]float64{abs.MatVec(ones), csr.MatVec(x), make([]float64, am.Rows)} {
		got := out.Col(j)
		for i := range want {
			if d := got[i] - want[i]; d > 1e-9 || d < -1e-9 {
				t.Fatalf("column %d row %d = %g, want %g", j, i, got[i], want[i])
			}
		}
	}
}

func TestATMatrixMatVecEmpty(t *testing.T) {
	cfg := testConfig()
	am, _, err := Partition(mat.NewCOO(20, 30), cfg)
	if err != nil {
		t.Fatal(err)
	}
	in, out := NewPanel(30), NewPanel(20)
	for i := range in.data {
		in.data[i] = 1
	}
	if err := (Sweeper{}).Mul(am, false, in, out); err != nil {
		t.Fatal(err)
	}
	for i, v := range out.data {
		if v != 0 {
			t.Fatalf("y[%d] = %g on empty matrix", i, v)
		}
	}
}

// TestVerifyPanelsIndependentOfExecutor: the panels are the same bits
// whether the caller sweeps or the teams do, whatever the topology and the
// worker runtime — every row is summed by one goroutine in Tiles order.
func TestVerifyPanelsIndependentOfExecutor(t *testing.T) {
	for _, id := range []string{"R3", "G9"} {
		a, c, cfg := squareProduct(t, id)
		if c.storedCellsBefore(c.Rows) < teamSweepCells {
			t.Fatalf("%s: product below the team cut-off, the test would compare the caller with itself", id)
		}
		x := NewPanel(a.Cols)
		rng := rand.New(rand.NewSource(5))
		for i := range x.data {
			x.data[i] = rng.NormFloat64()
		}
		sweepAll := func(s Sweeper) []Panel {
			p := []Panel{NewPanel(a.Rows), NewPanel(a.Rows), NewPanel(c.Rows), NewPanel(c.Rows)}
			for _, err := range []error{s.Mul(a, false, x, p[0]), s.Mul(a, true, x, p[1]), s.Mul(c, false, x, p[2]), s.sweep(c, false, x, p[3], true)} {
				if err != nil {
					t.Fatal(err)
				}
			}
			return p
		}
		want := sweepAll(Sweeper{})
		for _, topo := range []numa.Topology{{Sockets: 1, CoresPerSocket: 1}, {Sockets: 2, CoresPerSocket: 1}, {Sockets: 2, CoresPerSocket: 2}} {
			for _, ephemeral := range []bool{false, true} {
				run := cfg
				run.Topology, run.EphemeralWorkers = topo, ephemeral
				for pi, p := range sweepAll(TeamSweeper(context.Background(), run, 0)) {
					for i, v := range p.data {
						if math.Float64bits(v) != math.Float64bits(want[pi].data[i]) {
							t.Fatalf("%s at %d×%d ephemeral=%v: panel %d differs from the caller's at %d", id, topo.Sockets, topo.CoresPerSocket, ephemeral, pi, i)
						}
					}
				}
			}
		}
	}
}

// TestCellBalancedCuts: chunks cover the rows in order, none is empty, and
// on a skewed matrix none holds much more than its share of stored cells.
func TestCellBalancedCuts(t *testing.T) {
	_, c, _ := squareProduct(t, "G9")
	const parts = 8
	cuts := c.cellBalancedCuts(parts)
	if cuts[0] != 0 || cuts[len(cuts)-1] != c.Rows || len(cuts) > parts+1 {
		t.Fatalf("cuts %v do not span [0, %d) in at most %d chunks", cuts, c.Rows, parts)
	}
	share := c.storedCellsBefore(c.Rows) / parts
	for i := 1; i < len(cuts); i++ {
		if cuts[i] <= cuts[i-1] {
			t.Fatalf("cuts %v not strictly ascending", cuts)
		}
		if cells := c.storedCellsBefore(cuts[i]) - c.storedCellsBefore(cuts[i-1]); cells > 2*share {
			t.Errorf("chunk [%d, %d) holds %d stored cells, twice the share of %d", cuts[i-1], cuts[i], cells, share)
		}
	}
}

// nonFinitePair returns a small matrix whose square is not finite
// everywhere — through a stored +Inf, or through finite entries that
// overflow — next to plenty of finite rows.
func nonFinitePair(t *testing.T, cfg Config, big float64) (a, c *ATMatrix) {
	t.Helper()
	const n = 40
	coo := mat.NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Append(i, i, float64(i%7)+1)
		coo.Append(i, (i+3)%n, -0.5)
	}
	coo.Append(3, 3, big)
	a, _, err := Partition(coo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, _, err = MultiplyOpt(a, a, cfg, DefaultMultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return a, c
}

// TestVerifyAcceptsNonFiniteProduct: a correct product holding ±Inf or NaN
// is not corruption — it used to be refused because |z − w| is NaN there —
// while a flipped bit in one of its finite rows still is.
func TestVerifyAcceptsNonFiniteProduct(t *testing.T) {
	cfg := testConfig()
	for name, big := range map[string]float64{"stored +Inf": math.Inf(1), "overflow": 1e200} {
		a, c := nonFinitePair(t, cfg, big)
		if v := c.At(3, 3); !math.IsInf(v, 1) {
			t.Fatalf("%s: C[3,3] = %g, the test wants an infinite product entry", name, v)
		}
		opts := DefaultMultOptions()
		opts.Verify = 2
		if _, _, err := MultiplyOpt(a, a, cfg, opts); err != nil {
			t.Errorf("%s: verified multiply: %v", name, err)
		}
		for seed := int64(1); seed <= 20; seed++ {
			if err := VerifyProduct(a, a, c, 2, seed); err != nil {
				t.Fatalf("%s seed %d: correct product rejected: %v", name, seed, err)
			}
		}
		// Row 20 is finite on both sides; flip a bit of its diagonal entry.
		flipAt(t, c, 20, 20)
		var ve *VerifyError
		if err := VerifyProduct(a, a, c, 2, 1); !errors.As(err, &ve) || ve.Row != 20 {
			t.Errorf("%s: bit flipped in finite row 20: %v", name, err)
		}
	}
}

// flipAt flips the top mantissa bit of the stored value at (r, c).
func flipAt(t *testing.T, m *ATMatrix, r, c int) {
	t.Helper()
	tile := m.TileAt(r, c)
	if tile == nil {
		t.Fatalf("no tile at (%d,%d)", r, c)
	}
	flip := func(v *float64) { *v = math.Float64frombits(math.Float64bits(*v) ^ (1 << 51)) }
	lr, lc := r-tile.Row0, c-tile.Col0
	if tile.Kind == mat.DenseKind {
		flip(&tile.D.RowSlice(lr)[lc])
		return
	}
	lo, hi := tile.Sp.RowRange(lr)
	for p := lo; p < hi; p++ {
		if int(tile.Sp.ColIdx[p]) == lc {
			flip(&tile.Sp.Val[p])
			return
		}
	}
	t.Fatalf("no stored value at (%d,%d)", r, c)
}

// TestVerifyCancelled: a cancelled context ends verification with the
// context's error — before any sweep when it is already done, after the
// sweep it interrupted otherwise — never with a verdict on a half-filled
// panel, whether the product is right or wrong.
func TestVerifyCancelled(t *testing.T) {
	a, c, cfg := squareProduct(t, "G9")
	c.FlipOneBit() // a wrong product: only cancellation may keep that from being reported

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := VerifyProductOn(TeamSweeper(ctx, cfg, 0), a, a, c, 2, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: %v, want context.Canceled", err)
	}

	// Mid-sweep: B and A are swept on the caller (two polls each), the
	// result by eight team items, each polled for before it starts. The
	// eighth poll cancels: items have run, others never will, and the panel
	// is half filled.
	polled := &pollCtx{Context: context.Background()}
	polled.left.Store(7)
	if err := VerifyProductOn(TeamSweeper(polled, cfg, 0), a, a, c, 2, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled mid-sweep: %v, want context.Canceled", err)
	}
}

// pollCtx is a context that reports cancellation from the left+1-th time
// its Err is asked on — which is how the teams and the sweeper learn of it —
// so a test can cancel a run at a fixed point of its progress.
type pollCtx struct {
	context.Context
	left atomic.Int64
}

func (c *pollCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestVerifySweepFailureIsNotAVerdict: a panic or a watchdog expiry inside
// a sweep item comes back as the run's error, wrapped, not as
// ErrVerifyFailed.
func TestVerifySweepFailureIsNotAVerdict(t *testing.T) {
	a, c, cfg := squareProduct(t, "G9")
	// A dense tile whose payload is gone panics inside its sweep item.
	bad := newATMatrix(c.Rows, c.Cols, c.BAtomic)
	for i, tile := range c.Tiles {
		if i == len(c.Tiles)-1 {
			tile = &Tile{Row0: tile.Row0, Col0: tile.Col0, Rows: tile.Rows, Cols: tile.Cols, Kind: mat.DenseKind, NNZ: 1}
		}
		bad.Tiles = append(bad.Tiles, tile)
	}
	err := VerifyProductOn(TeamSweeper(nil, cfg, 0), a, a, bad, 2, 1)
	var tpe *sched.TaskPanicError
	if !errors.As(err, &tpe) || errors.Is(err, ErrVerifyFailed) {
		t.Fatalf("sweep over a broken tile: %v, want a wrapped *sched.TaskPanicError", err)
	}
}
