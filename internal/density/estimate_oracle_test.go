package density

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"atmatrix/internal/gen"
	"atmatrix/internal/mat"
)

// refEstimateProduct is the estimator as it stood before it became a
// Gustavson pass over block rows: the triple loop BR × BC × K, one
// log-survival sum per result cell. EstimateProduct must return its bits.
func refEstimateProduct(a, b *Map) *Map {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("density: contraction mismatch %d vs %d", a.Cols, b.Rows))
	}
	if a.Block != b.Block {
		panic(fmt.Sprintf("density: block size mismatch %d vs %d", a.Block, b.Block))
	}
	c := NewMap(a.Rows, b.Cols, a.Block)
	kBlocks := a.BC
	for i := 0; i < c.BR; i++ {
		for j := 0; j < c.BC; j++ {
			// Accumulate log-survival to stay numerically stable for
			// many small probabilities.
			logZero := 0.0
			for kb := 0; kb < kBlocks; kb++ {
				ra := a.At(i, kb)
				rb := b.At(kb, j)
				if ra == 0 || rb == 0 {
					continue
				}
				p := ra * rb
				_, w := a.CellDims(i, kb)
				if p >= 1 {
					logZero = math.Inf(-1)
					break
				}
				logZero += float64(w) * math.Log1p(-p)
			}
			rho := -math.Expm1(logZero)
			if rho == 0 {
				rho = 0 // normalize the -0.0 that -Expm1(0) produces
			}
			c.Set(i, j, rho)
		}
	}
	return c
}

// sameBits fails unless got and want agree in shape and in every cell's
// float64 bit pattern.
func sameBits(t *testing.T, name string, got, want *Map) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols || got.Block != want.Block || got.BR != want.BR || got.BC != want.BC || len(got.Rho) != len(want.Rho) {
		t.Fatalf("%s: shape %d×%d/%d (%d×%d), want %d×%d/%d (%d×%d)", name,
			got.Rows, got.Cols, got.Block, got.BR, got.BC, want.Rows, want.Cols, want.Block, want.BR, want.BC)
	}
	for i := range want.Rho {
		if math.Float64bits(got.Rho[i]) != math.Float64bits(want.Rho[i]) {
			t.Fatalf("%s: cell (%d,%d) = %x (%g), reference %x (%g)", name, i/want.BC, i%want.BC,
				math.Float64bits(got.Rho[i]), got.Rho[i], math.Float64bits(want.Rho[i]), want.Rho[i])
		}
	}
}

func checkAgainstRef(t *testing.T, name string, a, b *Map) *Map {
	t.Helper()
	got := EstimateProduct(a, b)
	sameBits(t, name, got, refEstimateProduct(a, b))
	return got
}

// oracleBAtomic is the benchmark server's atomic block (-b-atomic 64).
const oracleBAtomic = 64

// gridPick doubles the block from b_atomic until a dim×dim grid has at
// most limit cells — the rule core.estimateProductDensity (limit 2^13) and
// core.EstBlock (2^12, chains and expressions) pick their grids by.
func gridPick(dim, limit int) int {
	block := oracleBAtomic
	for ((dim+block-1)/block)*((dim+block-1)/block) > limit {
		block *= 2
	}
	return block
}

// oracleStandIn generates the Table I stand-in id at 1/32 with atload's
// seed rule for seed 1.
func oracleStandIn(t *testing.T, id string) *mat.COO {
	t.Helper()
	s, err := gen.Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	s.Seed += 1000
	coo, err := s.Generate(1.0 / 32)
	if err != nil {
		t.Fatal(err)
	}
	return coo
}

// embedded is the exact map of src seen as the upper-left corner of a
// dim×dim matrix, so that any two stand-ins can be multiplied.
func embedded(src *mat.COO, dim, block int) *Map {
	return FromCOO(&mat.COO{Rows: dim, Cols: dim, Ent: src.Ent}, block)
}

// TestEstimateProductMatchesReferenceOnStandIns: every ordered pair of
// R1–R9 and G9, at the grid a multiply picks, the grid a chain or an
// expression picks and one coarser; the self-products at b_atomic as well.
func TestEstimateProductMatchesReferenceOnStandIns(t *testing.T) {
	ids := []string{"R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9", "G9"}
	mats := make([]*mat.COO, len(ids))
	for i, id := range ids {
		mats[i] = oracleStandIn(t, id)
	}
	for i, x := range mats {
		for j, y := range mats {
			dim := max(x.Rows, y.Rows)
			blocks := []int{gridPick(dim, 1<<13), gridPick(dim, 1<<12), 2 * gridPick(dim, 1<<12)}
			if i == j {
				blocks = append(blocks, oracleBAtomic)
			}
			for _, block := range blocks {
				a, b := embedded(x, dim, block), embedded(y, dim, block)
				name := fmt.Sprintf("%s·%s/%d", ids[i], ids[j], block)
				checkAgainstRef(t, name, a, b)
				if i < j {
					checkAgainstRef(t, name+" transposed", b.Transpose(), a.Transpose())
				}
			}
		}
	}
}

// TestEstimateProductMatchesReferenceOnPowers walks ten self-powers of G9
// and of R3: the maps fill up, cells saturate at ρ̂ = 1, and the saturated
// cells feed the next product.
func TestEstimateProductMatchesReferenceOnPowers(t *testing.T) {
	for _, id := range []string{"G9", "R3"} {
		src := oracleStandIn(t, id)
		for _, block := range []int{oracleBAtomic, gridPick(src.Rows, 1<<12)} {
			m := FromCOO(src, block)
			cur, saturated := m, 0
			for k := 2; k <= 11; k++ {
				cur = checkAgainstRef(t, fmt.Sprintf("%s^%d/%d", id, k, block), cur, m)
			}
			for _, rho := range cur.Rho {
				if rho == 1 {
					saturated++
				}
			}
			if saturated == 0 {
				t.Errorf("%s/%d: no cell of the tenth power saturated; the case is not covered", id, block)
			}
		}
	}
}

func TestEstimateProductMatchesReferenceOnEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Clipped edge blocks: the last contraction block is 3 wide, the last
	// block row 5 high, the last block column 1 wide.
	a := FromCOO(mat.RandomCOO(rng, 37, 67, 900), 16)
	b := FromCOO(mat.RandomCOO(rng, 67, 49, 1200), 16)
	checkAgainstRef(t, "clipped", a, b)
	checkAgainstRef(t, "clipped transposed", b.Transpose(), a.Transpose())

	// All-zero operands, on either side and both.
	zeroA, zeroB := NewMap(37, 67, 16), NewMap(67, 49, 16)
	checkAgainstRef(t, "zero·b", zeroA, b)
	checkAgainstRef(t, "a·zero", a, zeroB)
	for _, rho := range checkAgainstRef(t, "zero·zero", zeroA, zeroB).Rho {
		if math.Float64bits(rho) != 0 {
			t.Fatalf("zero·zero estimated %x, want +0", math.Float64bits(rho))
		}
	}

	// A full cell on both sides: p ≥ 1, the survival probability is zero
	// whatever the other contraction blocks add before or after it.
	fullA, fullB := a.Transpose().Transpose(), b.Transpose().Transpose()
	fullA.Set(1, 2, 1)
	fullB.Set(2, 0, 1)
	fullB.Set(2, 3, 1)
	got := checkAgainstRef(t, "ρ=1 cells", fullA, fullB)
	if got.At(1, 0) != 1 || got.At(1, 3) != 1 {
		t.Fatalf("p ≥ 1 cells estimated %g and %g, want 1", got.At(1, 0), got.At(1, 3))
	}
	checkAgainstRef(t, "full·full", Uniform(40, 40, 8, 1), Uniform(40, 40, 8, 1))

	// Degenerate shapes: one block, one row of blocks, a zero-width
	// contraction (NewMap pads the grid to one cell of width 0).
	checkAgainstRef(t, "1×1 grid", Uniform(3, 5, 8, 0.4), Uniform(5, 2, 8, 0.7))
	checkAgainstRef(t, "row·column", Uniform(4, 200, 8, 0.01), Uniform(200, 4, 8, 0.02))
	checkAgainstRef(t, "column·row", Uniform(200, 4, 8, 0.01), Uniform(4, 200, 8, 0.02))
	checkAgainstRef(t, "empty contraction", Uniform(9, 0, 8, 0.5), Uniform(0, 9, 8, 0.5))
}

// randomMap draws a map whose cells are empty with probability pZero, full
// with probability pOne, and otherwise spread over many magnitudes.
func randomMap(rng *rand.Rand, rows, cols, block int, pZero, pOne float64) *Map {
	m := NewMap(rows, cols, block)
	for i := range m.Rho {
		switch u := rng.Float64(); {
		case u < pZero:
		case u < pZero+pOne:
			m.Rho[i] = 1
		default:
			m.Rho[i] = math.Pow(rng.Float64(), float64(1+rng.Intn(12)))
		}
	}
	return m
}

func TestEstimateProductMatchesReferenceOnRandomMaps(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		block := 1 << rng.Intn(7)
		rows, k, cols := 1+rng.Intn(30*block), 1+rng.Intn(30*block), 1+rng.Intn(30*block)
		pZero := []float64{0, 0.5, 0.9, 0.99}[rng.Intn(4)]
		pOne := []float64{0, 0, 0.02, 0.3}[rng.Intn(4)]
		a := randomMap(rng, rows, k, block, pZero, pOne)
		b := randomMap(rng, k, cols, block, pZero, pOne)
		checkAgainstRef(t, fmt.Sprintf("seed %d (%d×%d×%d / %d)", seed, rows, k, cols, block), a, b)
	}
}

// TestSaturationConstant pins the skip rule to math.Expm1: at and below
// saturatedLog it returns exactly −1, so a cell whose log-survival has got
// there is ρ̂ = 1 whatever else is added to it.
func TestSaturationConstant(t *testing.T) {
	for _, x := range []float64{saturatedLog, math.Nextafter(saturatedLog, math.Inf(-1)), 2 * saturatedLog, -700, -1e300, math.Inf(-1)} {
		if got := math.Expm1(x); got != -1 {
			t.Errorf("math.Expm1(%g) = %v, want exactly -1", x, got)
		}
	}
	if saturatedLog != -56*math.Ln2 {
		t.Errorf("saturatedLog = %v, want -56·ln 2 = %v", saturatedLog, -56*math.Ln2)
	}
}
