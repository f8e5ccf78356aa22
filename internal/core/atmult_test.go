package core

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"atmatrix/internal/gen"
	"atmatrix/internal/mat"
	"atmatrix/internal/numa"
	"atmatrix/internal/sched"
)

const tol = 1e-9

// multAndCheck partitions a and b, multiplies with the given options, and
// compares against the dense reference product.
func multAndCheck(t *testing.T, cfg Config, opts MultOptions, a, b *mat.COO, label string) *MultStats {
	t.Helper()
	am, _, err := Partition(a, cfg)
	if err != nil {
		t.Fatalf("%s: partition A: %v", label, err)
	}
	bm, _, err := Partition(b, cfg)
	if err != nil {
		t.Fatalf("%s: partition B: %v", label, err)
	}
	cm, stats, err := MultiplyOpt(am, bm, cfg, opts)
	if err != nil {
		t.Fatalf("%s: multiply: %v", label, err)
	}
	if err := cm.Validate(); err != nil {
		t.Fatalf("%s: result invalid: %v", label, err)
	}
	want := mat.MulReference(a.ToDense(), b.ToDense())
	if !cm.ToDense().EqualApprox(want, tol) {
		t.Fatalf("%s: ATMULT result differs from reference", label)
	}
	return stats
}

func TestATMULTRandomSquare(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cfg := testConfig()
	for trial := 0; trial < 8; trial++ {
		n := 16 + rng.Intn(150)
		a := mat.RandomCOO(rng, n, n, rng.Intn(n*n/3+1))
		b := mat.RandomCOO(rng, n, n, rng.Intn(n*n/3+1))
		multAndCheck(t, cfg, DefaultMultOptions(), a, b, "random square")
	}
}

func TestATMULTRectangular(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	cfg := testConfig()
	for trial := 0; trial < 8; trial++ {
		m := 8 + rng.Intn(120)
		k := 8 + rng.Intn(120)
		n := 8 + rng.Intn(120)
		a := mat.RandomCOO(rng, m, k, rng.Intn(m*k/2+1))
		b := mat.RandomCOO(rng, k, n, rng.Intn(k*n/2+1))
		multAndCheck(t, cfg, DefaultMultOptions(), a, b, "rectangular")
	}
}

func TestATMULTHeterogeneousSelfMultiply(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	cfg := testConfig()
	a, err := genHeterogeneous(rng, 192)
	if err != nil {
		t.Fatal(err)
	}
	stats := multAndCheck(t, cfg, DefaultMultOptions(), a, a, "heterogeneous self")
	if stats.Contributions == 0 {
		t.Fatal("no contributions recorded")
	}
	if stats.WallTime <= 0 {
		t.Fatal("wall time not recorded")
	}
}

func TestATMULTAllOptionCombinations(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	cfg := testConfig()
	a, err := genHeterogeneous(rng, 128)
	if err != nil {
		t.Fatal(err)
	}
	b := mat.RandomCOO(rng, 128, 128, 3000)
	for _, est := range []bool{false, true} {
		for _, dyn := range []bool{false, true} {
			opts := MultOptions{Estimate: est, DynOpt: dyn}
			multAndCheck(t, cfg, opts, a, b, "options")
		}
	}
}

func TestATMULTDensePlainOperand(t *testing.T) {
	// Fig. 9 scenario: sparse AT MATRIX × plain dense matrix.
	rng := rand.New(rand.NewSource(35))
	cfg := testConfig()
	a, err := genHeterogeneous(rng, 96)
	if err != nil {
		t.Fatal(err)
	}
	bd := mat.RandomDense(rng, 96, 40)
	am, _, err := Partition(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bm := FromDense(bd, cfg.BAtomic)
	cm, stats, err := Multiply(am, bm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := mat.MulReference(a.ToDense(), bd)
	if !cm.ToDense().EqualApprox(want, tol) {
		t.Fatal("sparse×dense mismatch")
	}
	// And the mirrored dense × sparse case.
	ad := mat.RandomDense(rng, 40, 96)
	cm2, _, err := Multiply(FromDense(ad, cfg.BAtomic), am, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !cm2.ToDense().EqualApprox(mat.MulReference(ad, a.ToDense()), tol) {
		t.Fatal("dense×sparse mismatch")
	}
	if stats.Numa.LocalBytes()+stats.Numa.RemoteBytes() == 0 {
		t.Fatal("no NUMA traffic recorded")
	}
}

func TestATMULTPlainCSROperands(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	cfg := testConfig()
	a := mat.RandomCOO(rng, 80, 80, 1200)
	b := mat.RandomCOO(rng, 80, 80, 1200)
	am := FromCSR(a.ToCSR(), cfg.BAtomic)
	bm := FromCSR(b.ToCSR(), cfg.BAtomic)
	cm, _, err := Multiply(am, bm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := mat.MulReference(a.ToDense(), b.ToDense())
	if !cm.ToDense().EqualApprox(want, tol) {
		t.Fatal("plain CSR operand mismatch")
	}
}

func TestATMULTEmptyOperand(t *testing.T) {
	cfg := testConfig()
	rng := rand.New(rand.NewSource(37))
	a := mat.RandomCOO(rng, 40, 40, 300)
	am, _, err := Partition(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	empty, _, err := Partition(mat.NewCOO(40, 40), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cm, _, err := Multiply(am, empty, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cm.NNZ() != 0 || len(cm.Tiles) != 0 {
		t.Fatal("A·0 produced non-zero tiles")
	}
}

func TestATMULTDimensionErrors(t *testing.T) {
	cfg := testConfig()
	rng := rand.New(rand.NewSource(38))
	am, _, _ := Partition(mat.RandomCOO(rng, 10, 20, 40), cfg)
	bm, _, _ := Partition(mat.RandomCOO(rng, 30, 10, 40), cfg)
	if _, _, err := Multiply(am, bm, cfg); err == nil {
		t.Fatal("contraction mismatch accepted")
	}
	other := cfg
	other.BAtomic = cfg.BAtomic * 2
	bm2, _, _ := Partition(mat.RandomCOO(rng, 20, 10, 40), other)
	if _, _, err := Multiply(am, bm2, cfg); err == nil {
		t.Fatal("block size mismatch accepted")
	}
}

// TestATMULTResultHeterogeneity: a heterogeneous input must lead to a
// result with both dense and sparse target tiles (the Fig. 2d situation),
// and the AT MATRIX result must not exceed the plain dense footprint.
func TestATMULTResultHeterogeneity(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	cfg := testConfig()
	a, err := genHeterogeneous(rng, 192)
	if err != nil {
		t.Fatal(err)
	}
	am, _, err := Partition(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cm, _, err := Multiply(am, am, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp, d := cm.TileCount()
	if sp == 0 || d == 0 {
		t.Fatalf("result tiles: %d sparse / %d dense, want a mix", sp, d)
	}
	if cm.Bytes() > mat.DenseBytes(cm.Rows, cm.Cols) {
		t.Fatal("AT MATRIX result larger than a plain dense array (§II-C3)")
	}
}

// TestATMULTMemoryLimit: a tight memory limit must force sparse targets
// and reduce the result footprint, at unchanged numerical content.
func TestATMULTMemoryLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	cfg := testConfig()
	a, err := genHeterogeneous(rng, 128)
	if err != nil {
		t.Fatal(err)
	}
	am, _, err := Partition(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	unlimited, statsU, err := Multiply(am, am, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tight := cfg
	tight.MemLimit = unlimited.Bytes() / 4
	limited, statsL, err := Multiply(am, am, tight)
	if err != nil {
		t.Fatal(err)
	}
	if statsL.WriteThreshold <= statsU.WriteThreshold {
		t.Fatalf("memory limit did not raise the write threshold: %g vs %g",
			statsL.WriteThreshold, statsU.WriteThreshold)
	}
	if limited.Bytes() >= unlimited.Bytes() {
		t.Fatalf("memory limit did not shrink the result: %d vs %d", limited.Bytes(), unlimited.Bytes())
	}
	if !limited.ToDense().EqualApprox(unlimited.ToDense(), tol) {
		t.Fatal("memory limit changed the numerical result")
	}
}

// TestATMULTDynamicConversion: a matrix whose tiles sit just below ρ0^R
// multiplied with a full dense matrix triggers just-in-time conversions
// (the R1 situation of §IV-D).
func TestATMULTDynamicConversion(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cfg := testConfig()
	n := 64
	a := mat.NewCOO(n, n)
	// Deterministic striped pattern with uniform density 2/9 ≈ 0.22 in
	// every atomic block: below ρ0^R = 0.25 (tiles stay sparse) but above
	// the mixed-kernel turnaround 0.2 (the conversion zone).
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if (r*n+c)%9 < 2 {
				a.Append(r, c, rng.Float64()+0.1)
			}
		}
	}
	a.Dedup()
	am, _, err := Partition(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tile := range am.Tiles {
		if tile.Kind != mat.Sparse {
			t.Fatal("setup failed: tiles should be sparse")
		}
	}
	bd := mat.RandomDense(rng, n, n)
	cm, stats, err := Multiply(am, FromDense(bd, cfg.BAtomic), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Conversions == 0 {
		t.Fatal("optimizer performed no conversions for near-threshold tiles × dense")
	}
	if !cm.ToDense().EqualApprox(mat.MulReference(a.ToDense(), bd), tol) {
		t.Fatal("converted multiplication mismatch")
	}
}

func TestATMULTFixedTiles(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cfg := testConfig()
	a, err := genHeterogeneous(rng, 96)
	if err != nil {
		t.Fatal(err)
	}
	for _, mixed := range []bool{false, true} {
		am, _, err := PartitionFixed(a, cfg, mixed)
		if err != nil {
			t.Fatal(err)
		}
		cm, _, err := Multiply(am, am, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := mat.MulReference(a.ToDense(), a.ToDense())
		if !cm.ToDense().EqualApprox(want, tol) {
			t.Fatalf("fixed tiles (mixed=%v) mismatch", mixed)
		}
	}
}

func TestATMULTMixedGranularityOperands(t *testing.T) {
	// A and B partitioned differently (adaptive vs fixed) still multiply
	// correctly through referenced windows.
	rng := rand.New(rand.NewSource(43))
	cfg := testConfig()
	a, err := genHeterogeneous(rng, 128)
	if err != nil {
		t.Fatal(err)
	}
	b := mat.RandomCOO(rng, 128, 128, 4000)
	am, _, err := Partition(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bm, _, err := PartitionFixed(b, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	cm, _, err := Multiply(am, bm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := mat.MulReference(a.ToDense(), b.ToDense())
	if !cm.ToDense().EqualApprox(want, tol) {
		t.Fatal("mixed-granularity operand mismatch")
	}
}

// TestATMULTBytesIndependentOfExecutor: which team computes a pair is a
// matter of timing — a team whose queue is dry takes what the others have
// left — and must not show in the product. Ten runs of the same
// multiplication serialize to the same bytes, and every result tile is
// homed where its tile-row is placed, on skewed inputs that leave most
// teams dry — and on a one-pair product whose pair is cut into row chunks.
func TestATMULTBytesIndependentOfExecutor(t *testing.T) {
	var stolen int64
	for _, tp := range []numa.Topology{{Sockets: 2, CoresPerSocket: 2}, {Sockets: 4, CoresPerSocket: 1}, {Sockets: 1, CoresPerSocket: 2}} {
		for _, id := range []string{"G9", "R2"} {
			spec, err := gen.Lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			a, err := spec.Generate(400.0 / float64(spec.Dim))
			if err != nil {
				t.Fatal(err)
			}
			cfg := testConfig()
			cfg.Topology = tp
			am, _, err := Partition(a, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var first []byte
			for run := 0; run < 10; run++ {
				c, stats, err := MultiplyOpt(am, am, cfg, DefaultMultOptions())
				if err != nil {
					t.Fatal(err)
				}
				stolen += stats.TasksStolen
				for _, tile := range c.Tiles {
					if want := cfg.HomeOfRow(tile.Row0); tile.Home != want {
						t.Fatalf("%s %dx%d run %d: tile at row %d homed on %d, its tile-row is placed on %d",
							id, tp.Sockets, tp.CoresPerSocket, run, tile.Row0, tile.Home, want)
					}
				}
				var buf bytes.Buffer
				if _, err := c.WriteTo(&buf); err != nil {
					t.Fatal(err)
				}
				if run == 0 {
					first = buf.Bytes()
				} else if !bytes.Equal(first, buf.Bytes()) {
					t.Fatalf("%s %dx%d: run %d serialized differently from run 0", id, tp.Sockets, tp.CoresPerSocket, run)
				}
			}
		}
	}
	// On a single processor a leader can drain its queue before the others
	// are scheduled at all.
	if stolen == 0 && runtime.GOMAXPROCS(0) > 1 {
		t.Fatal("no pair ever ran away from home: the test inspected nothing")
	}
	t.Run("one dense-target pair", bytesIndependentOfRowChunks)
	t.Run("one sparse-target pair", bytesIndependentOfSparseRowChunks)
}

// decisions are the counters of a product that must not depend on which
// team ran which task, or on how a pair was cut into row chunks.
type decisions struct {
	contributions, conversions, outer, gustavson, targets int64
}

func decisionsOf(s *MultStats) decisions {
	return decisions{s.Contributions, s.Conversions, s.OuterKernelCalls, s.GustavsonKernelCalls, s.TargetTiles}
}

// bytesIndependentOfRowChunks: a product with fewer tile pairs than teams
// runs its dense-target pair as one row chunk per team. One dense tile
// times one sparse tile — one pair, a dense target, the shape of a dense
// stored product read back against a sparse operand — serializes to the
// same bytes, homes its tile on the same socket and makes the same
// decisions whole on 1×1 as on 2×1, 2×2, 4×1 and 1×2, whose workers share
// its rows, in every one of ten runs.
func bytesIndependentOfRowChunks(t *testing.T) {
	cfg := testConfig()
	a, b := onePairDenseTarget(t, cfg, rand.New(rand.NewSource(53)))
	var first []byte
	var want decisions
	for _, tp := range []numa.Topology{{Sockets: 1, CoresPerSocket: 1}, {Sockets: 2, CoresPerSocket: 1},
		{Sockets: 2, CoresPerSocket: 2}, {Sockets: 4, CoresPerSocket: 1}, {Sockets: 1, CoresPerSocket: 2}} {
		cfg.Topology = tp
		for run := 0; run < 10; run++ {
			c, stats, err := MultiplyOpt(a, b, cfg, DefaultMultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if len(c.Tiles) != 1 || c.Tiles[0].Kind != mat.DenseKind {
				t.Fatalf("%dx%d: product has %d tiles, want one dense tile: the test inspects no split pair",
					tp.Sockets, tp.CoresPerSocket, len(c.Tiles))
			}
			if got, want := c.Tiles[0].NNZ, c.Tiles[0].D.NNZ(); got != want {
				t.Fatalf("%dx%d run %d: tile NNZ %d, its cells hold %d", tp.Sockets, tp.CoresPerSocket, run, got, want)
			}
			if home := c.Tiles[0].Home; home != cfg.HomeOfRow(0) {
				t.Fatalf("%dx%d run %d: tile homed on %d, its tile-row is placed on %d",
					tp.Sockets, tp.CoresPerSocket, run, home, cfg.HomeOfRow(0))
			}
			var buf bytes.Buffer
			if _, err := c.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first, want = buf.Bytes(), decisionsOf(stats)
				continue
			}
			if !bytes.Equal(first, buf.Bytes()) {
				t.Fatalf("%dx%d run %d: serialized differently from 1x1 run 0", tp.Sockets, tp.CoresPerSocket, run)
			}
			if got := decisionsOf(stats); got != want {
				t.Fatalf("%dx%d run %d: decisions %+v, 1x1 run 0 made %+v", tp.Sockets, tp.CoresPerSocket, run, got, want)
			}
		}
	}
}

// onePairDenseTarget builds an A of one dense tile and a B of one sparse
// tile whose product is one pair with a dense target.
func onePairDenseTarget(t *testing.T, cfg Config, rng *rand.Rand) (a, b *ATMatrix) {
	t.Helper()
	const m, k, n = 174, 100, 90
	d := mat.NewDense(m, k)
	for i := range d.Data {
		if rng.Intn(8) != 0 {
			d.Data[i] = rng.NormFloat64()
		}
	}
	sp := mat.RandomCOO(rng, k, n, k*n/20).ToCSR()
	a, err := NewFromTiles(m, k, cfg.BAtomic, []*Tile{{Rows: m, Cols: k, Kind: mat.DenseKind, D: d, NNZ: d.NNZ()}})
	if err != nil {
		t.Fatal(err)
	}
	b, err = NewFromTiles(k, n, cfg.BAtomic, []*Tile{{Rows: k, Cols: n, Kind: mat.Sparse, Sp: sp, NNZ: sp.NNZ()}})
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// bytesIndependentOfSparseRowChunks: a product with fewer tile pairs than
// cores runs its sparse-target pair as row chunks on one accumulator. One
// sparse tile squared — a Gustavson pair at four entries a row (R8's
// shape) and a merge-kernel pair at one (R7's) — serializes to the same
// bytes, homes its tile on the same socket and makes the same decisions
// whole on 1×1 as on 2×1, 2×2, 4×1 and 1×2, in every one of ten runs.
func bytesIndependentOfSparseRowChunks(t *testing.T) {
	for _, tc := range []struct {
		name   string
		perRow int
		outer  bool
	}{{"gustavson", 4, false}, {"merge", 1, true}} {
		cfg := testConfig()
		a := onePairSparseTarget(t, cfg, rand.New(rand.NewSource(61)), tc.perRow)
		var first []byte
		var want decisions
		for _, tp := range []numa.Topology{{Sockets: 1, CoresPerSocket: 1}, {Sockets: 2, CoresPerSocket: 1},
			{Sockets: 2, CoresPerSocket: 2}, {Sockets: 4, CoresPerSocket: 1}, {Sockets: 1, CoresPerSocket: 2}} {
			cfg.Topology = tp
			for run := 0; run < 10; run++ {
				c, stats, err := MultiplyOpt(a, a, cfg, DefaultMultOptions())
				if err != nil {
					t.Fatal(err)
				}
				if len(c.Tiles) != 1 || c.Tiles[0].Kind != mat.Sparse {
					t.Fatalf("%s %dx%d: product has %d tiles, want one sparse tile: the test inspects no split pair",
						tc.name, tp.Sockets, tp.CoresPerSocket, len(c.Tiles))
				}
				if got := stats.OuterKernelCalls > 0; got != tc.outer {
					t.Fatalf("%s %dx%d: %d merge-kernel and %d Gustavson contributions: the test inspects the other kernel",
						tc.name, tp.Sockets, tp.CoresPerSocket, stats.OuterKernelCalls, stats.GustavsonKernelCalls)
				}
				if got, want := c.Tiles[0].NNZ, c.Tiles[0].Sp.NNZ(); got != want {
					t.Fatalf("%s %dx%d run %d: tile NNZ %d, its rows hold %d", tc.name, tp.Sockets, tp.CoresPerSocket, run, got, want)
				}
				if home := c.Tiles[0].Home; home != cfg.HomeOfRow(0) {
					t.Fatalf("%s %dx%d run %d: tile homed on %d, its tile-row is placed on %d",
						tc.name, tp.Sockets, tp.CoresPerSocket, run, home, cfg.HomeOfRow(0))
				}
				var buf bytes.Buffer
				if _, err := c.WriteTo(&buf); err != nil {
					t.Fatal(err)
				}
				if first == nil {
					first, want = buf.Bytes(), decisionsOf(stats)
					continue
				}
				if !bytes.Equal(first, buf.Bytes()) {
					t.Fatalf("%s %dx%d run %d: serialized differently from 1x1 run 0", tc.name, tp.Sockets, tp.CoresPerSocket, run)
				}
				if got := decisionsOf(stats); got != want {
					t.Fatalf("%s %dx%d run %d: decisions %+v, 1x1 run 0 made %+v", tc.name, tp.Sockets, tp.CoresPerSocket, run, got, want)
				}
			}
		}
	}
}

// onePairSparseTarget builds an A of one sparse tile, about perRow entries
// in each of its rows, whose square is one pair with a sparse target.
func onePairSparseTarget(t *testing.T, cfg Config, rng *rand.Rand, perRow int) *ATMatrix {
	t.Helper()
	const n = 300
	sp := mat.RandomCOO(rng, n, n, n*perRow).ToCSR()
	a, err := NewFromTiles(n, n, cfg.BAtomic, []*Tile{{Rows: n, Cols: n, Kind: mat.Sparse, Sp: sp, NNZ: sp.NNZ()}})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestATMULTChained(t *testing.T) {
	// The result AT MATRIX must be usable as an input operand (D = C·A).
	rng := rand.New(rand.NewSource(45))
	cfg := testConfig()
	a := mat.RandomCOO(rng, 64, 64, 1200)
	am, _, err := Partition(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cm, _, err := Multiply(am, am, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dm, _, err := Multiply(cm, am, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ad := a.ToDense()
	want := mat.MulReference(mat.MulReference(ad, ad), ad)
	if !dm.ToDense().EqualApprox(want, tol) {
		t.Fatal("chained multiplication mismatch")
	}
}

// TestScratchBytesCoversWorkerArenas: MultStats.ScratchBytes must not
// report less than what the worker arenas of the topology that ran the
// multiplication hold afterwards — the run storage of the sparse targets,
// every worker's SPA (values and occupancy bitmap) and the contribution
// buffers. kernels.TestScratchBytesCoversSliceCaps ties Scratch.Bytes to
// the slice capacities; this ties the operator's figure to Scratch.Bytes.
func TestScratchBytesCoversWorkerArenas(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	cfg := testConfig()
	n := 300
	a := mat.RandomCOO(rng, n, n, 3*n)
	b := mat.RandomCOO(rng, n, n, 3*n)
	stats := multAndCheck(t, cfg, DefaultMultOptions(), a, b, "scratch accounting")

	// One item per worker; each waits for all to have started, so every
	// worker is held by its own item and each arena is inspected exactly
	// once.
	var held atomic.Int64
	var arrived sync.WaitGroup
	cores := cfg.Topology.TotalCores()
	arrived.Add(cores)
	_, err := RunHomed(context.Background(), cfg, 0, cores, func(i int) int { return i * cfg.BAtomic }, func(team *sched.Team, _ int) {
		arrived.Done()
		arrived.Wait()
		if ws, ok := (*team.WorkerLocal()).(*workerState); ok {
			held.Add(ws.scratch.Bytes() + int64(cap(ws.contribs))*int64(unsafe.Sizeof(contribution{})))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if held.Load() == 0 {
		t.Fatal("no persistent worker arena found: the test inspects nothing")
	}
	if stats.ScratchBytes < held.Load() {
		t.Fatalf("MultStats.ScratchBytes = %d, the worker arenas hold %d", stats.ScratchBytes, held.Load())
	}
}

// TestEphemeralScratchNotRetained: under EphemeralWorkers every task and
// fan-out chunk works in a throwaway arena, so however large the products
// grow, the persistent scratch high-water mark MultStats.ScratchBytes
// reports stays where it was. The topology is private to this test: a
// persistent arena on it would start empty and show up as growth.
func TestEphemeralScratchNotRetained(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	cfg := testConfig()
	cfg.Topology = numa.Topology{Sockets: 3, CoresPerSocket: 2}
	cfg.EphemeralWorkers = true
	t.Cleanup(sched.RuntimeFor(cfg.Topology).Close)
	var first int64
	for i, n := range []int{64, 200, 400} {
		a := mat.RandomCOO(rng, n, n, 4*n)
		stats := multAndCheck(t, cfg, DefaultMultOptions(), a, a, "ephemeral scratch")
		if i == 0 {
			first = stats.ScratchBytes
		} else if stats.ScratchBytes != first {
			t.Fatalf("%d×%d: ScratchBytes %d, was %d after the first ephemeral multiply", n, n, stats.ScratchBytes, first)
		}
	}
}

// TestEphemeralMultiplyStartsNoGoroutine: the ephemeral ablation runs on the
// persistent teams like every other multiplication, so once those are up
// the goroutine count never rises during a multiply — not even while it is
// in flight.
func TestEphemeralMultiplyStartsNoGoroutine(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	cfg := testConfig()
	cfg.EphemeralWorkers = true
	am, _, err := Partition(mat.RandomCOO(rng, 300, 300, 3000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	multiply := func() {
		if _, _, err := Multiply(am, am, cfg); err != nil {
			t.Error(err)
		}
	}
	multiply() // starts the runtime's workers
	before := runtime.NumGoroutine()
	stop, peak := make(chan struct{}), make(chan int)
	go func() {
		top := 0
		for {
			select {
			case <-stop:
				peak <- top
				return
			default:
			}
			top = max(top, runtime.NumGoroutine())
			runtime.Gosched()
		}
	}()
	for i := 0; i < 20; i++ {
		multiply()
	}
	close(stop)
	if p := <-peak; p > before+1 { // +1: the sampler
		t.Fatalf("goroutines rose during ephemeral multiplies: %d warm, peak %d", before, p)
	}
}
