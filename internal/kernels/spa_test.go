package kernels

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"atmatrix/internal/mat"
)

// oracleCSR is the finalize this package shipped before sorted runs, run
// on a scenario: gather every (col, val) pair a row receives — one per
// column per contribution, summed in scatter order as the SPA does —
// comparison-sort the pairs by column, sum duplicates in sorted order, drop
// exact zeros. It is kept as the reference the sort-free row pass is tested
// against.
func oracleCSR(sc accScenario) *mat.CSR {
	out := mat.NewCSR(sc.rows, sc.cols)
	for r := 0; r < sc.rows; r++ {
		var run []scenEntry
		for _, ct := range sc.contribs {
			if ct.dense == nil {
				at := map[int32]int{}
				for _, e := range ct.runs[r] {
					if i, ok := at[e.col]; ok {
						run[i].val += e.val
						continue
					}
					at[e.col] = len(run)
					run = append(run, e)
				}
				continue
			}
			if i := r - ct.r0; i >= 0 && i < ct.dense.Rows {
				for j, v := range ct.dense.RowSlice(i) {
					if v != 0 {
						run = append(run, scenEntry{int32(ct.c0 + j), v})
					}
				}
			}
		}
		slices.SortFunc(run, func(a, b scenEntry) int { return int(a.col) - int(b.col) })
		for i := 0; i < len(run); {
			sum := run[i].val
			j := i + 1
			for ; j < len(run) && run[j].col == run[i].col; j++ {
				sum += run[j].val
			}
			if sum != 0 {
				out.ColIdx = append(out.ColIdx, run[i].col)
				out.Val = append(out.Val, sum)
			}
			i = j
		}
		out.RowPtr[r+1] = int64(len(out.ColIdx))
	}
	return out
}

// accScenario is one randomized accumulation history: a target shape and,
// per contribution, what each row receives. Its terms feed identical
// contributions to every pass, so chunkings can be compared on equal input.
type accScenario struct {
	rows, cols int
	contribs   []accContrib
	maxRuns    int // most contributions any row receives
}

type accContrib struct {
	dense *mat.Dense // non-nil: a dense block at (r0, c0)
	r0    int
	c0    int
	runs  map[int][]scenEntry // else: row → entries in scatter order
}

type scenEntry struct {
	col int32
	val float64
}

// scenarioWidths are the target widths every differential run cycles
// through: one column, both sides of a bitmap word, and a width whose
// bitmap spans more than 1024 words (> 65 536 columns).
var scenarioWidths = []int{1, 63, 64, 65, 70000}

// newScenario draws a history. In exact mode values are small integers and
// later contributions negate earlier ones, so sums are exact in any order
// and whole entries cancel to zero; otherwise values are positive reals and
// only rounding separates the summation orders.
func newScenario(r *rand.Rand, exact bool) accScenario {
	sc := accScenario{rows: 1 + r.Intn(8)}
	if r.Intn(3) == 0 {
		sc.cols = 1 + r.Intn(200)
	} else {
		sc.cols = scenarioWidths[r.Intn(len(scenarioWidths))]
	}
	value := func() float64 {
		if exact {
			return float64(r.Intn(7) - 3) // includes 0: stored zeros must vanish
		}
		return 0.5 + r.Float64()
	}
	perRow := make([]int, sc.rows)
	n := r.Intn(9) // 0..8 contributions
	for c := 0; c < n; c++ {
		if exact && c > 0 && r.Intn(3) == 0 {
			// Negate an earlier SPA contribution: exact cancellation.
			if src := sc.contribs[r.Intn(c)]; src.dense == nil {
				neg := accContrib{runs: map[int][]scenEntry{}}
				for row, es := range src.runs {
					for _, e := range es {
						neg.runs[row] = append(neg.runs[row], scenEntry{e.col, -e.val})
					}
					perRow[row]++
				}
				sc.contribs = append(sc.contribs, neg)
				continue
			}
		}
		if sc.cols <= 200 && r.Intn(4) == 0 {
			h, w := 1+r.Intn(sc.rows), 1+r.Intn(sc.cols)
			d := mat.NewDense(h, w)
			for i := 0; i < h; i++ {
				for j := 0; j < w; j++ {
					if r.Intn(2) == 0 {
						d.Set(i, j, value())
					}
				}
			}
			ct := accContrib{dense: d, r0: r.Intn(sc.rows - h + 1), c0: r.Intn(sc.cols - w + 1)}
			for i := 0; i < h; i++ {
				perRow[ct.r0+i]++
			}
			sc.contribs = append(sc.contribs, ct)
			continue
		}
		ct := accContrib{runs: map[int][]scenEntry{}}
		for row := 0; row < sc.rows; row++ {
			if r.Intn(4) == 0 {
				continue // this contribution leaves the row empty
			}
			// Either a handful of entries (sort path of the emit) or enough
			// to cross into the bitmap scan; columns cluster so runs overlap.
			cnt := 1 + r.Intn(6)
			if r.Intn(3) == 0 {
				cnt = 1 + r.Intn(min(sc.cols, 400))
			}
			span := min(sc.cols, 1+r.Intn(2*cnt+8))
			base := r.Intn(sc.cols - span + 1)
			for e := 0; e < cnt; e++ {
				ct.runs[row] = append(ct.runs[row], scenEntry{int32(base + r.Intn(span)), value()})
			}
			perRow[row]++
		}
		sc.contribs = append(sc.contribs, ct)
	}
	for _, k := range perRow {
		sc.maxRuns = max(sc.maxRuns, k)
	}
	return sc
}

// terms turns the history into row-pass terms. A run contribution becomes a
// SpSpSp term whose A row r holds a 1 for each entry row r receives, in
// scatter order, and whose B row e holds entry e alone: the SPA sees
// exactly the scenario's (col, val) sequence. A dense block becomes a SpDSp
// term: A places block row i at target row r0+i, B is the block at column
// offset c0.
func (sc accScenario) terms() []Term {
	var out []Term
	for _, ct := range sc.contribs {
		if ct.dense != nil {
			a := mat.NewCSR(sc.rows, ct.dense.Rows)
			for r := 0; r < sc.rows; r++ {
				if i := r - ct.r0; i >= 0 && i < ct.dense.Rows {
					a.ColIdx, a.Val = append(a.ColIdx, int32(i)), append(a.Val, 1)
				}
				a.RowPtr[r+1] = int64(len(a.ColIdx))
			}
			b := mat.NewDense(ct.dense.Rows, sc.cols)
			for i := 0; i < ct.dense.Rows; i++ {
				copy(b.RowSlice(i)[ct.c0:], ct.dense.RowSlice(i))
			}
			out = append(out, Term{A: FullCSR(a), BD: *b})
			continue
		}
		var es []scenEntry
		a := mat.NewCSR(sc.rows, 0)
		for r := 0; r < sc.rows; r++ {
			for _, e := range ct.runs[r] {
				a.ColIdx, a.Val = append(a.ColIdx, int32(len(es))), append(a.Val, 1)
				es = append(es, e)
			}
			a.RowPtr[r+1] = int64(len(a.ColIdx))
		}
		a.Cols = len(es)
		b := mat.NewCSR(len(es), sc.cols)
		for i, e := range es {
			b.ColIdx, b.Val = append(b.ColIdx, e.col), append(b.Val, e.val)
			b.RowPtr[i+1] = int64(i + 1)
		}
		out = append(out, Term{A: FullCSR(a), B: FullCSR(b)})
	}
	return out
}

// passChunks runs terms over a rows×cols target, one segment per chunk, the
// chunks alternating between two worker arenas.
func passChunks(rows, cols int, terms []Term, cuts [][2]int) *mat.CSR {
	scrs := [2]*Scratch{NewScratch(), NewScratch()}
	acc := NewSpAcc(rows, cols)
	acc.Split(len(cuts))
	for i, c := range cuts {
		acc.Pass(i, c[0], c[1], terms, scrs[i%2])
	}
	return acc.ToCSR()
}

// sameStructure reports whether two CSR matrices hold the same pattern.
func sameStructure(a, b *mat.CSR) bool {
	return slices.Equal(a.RowPtr, b.RowPtr) && slices.Equal(a.ColIdx, b.ColIdx)
}

// checkScenario runs the row pass on one history over the whole row range
// and over a random chunking (each chunk its own segment and arena, as the
// row fan-out does) and compares both with the sorting oracle.
func checkScenario(t *testing.T, r *rand.Rand, sc accScenario, exact bool) bool {
	oracle := oracleCSR(sc)
	terms := sc.terms()
	alone := passChunks(sc.rows, sc.cols, terms, [][2]int{{0, sc.rows}})
	chunked := passChunks(sc.rows, sc.cols, terms, chunks(r, sc.rows))

	if err := alone.Validate(); err != nil {
		t.Logf("row pass result invalid: %v", err)
		return false
	}
	// Chunking must not matter at all: bit-identical.
	if !sameStructure(alone, chunked) || !slices.Equal(alone.Val, chunked.Val) {
		t.Logf("chunked row pass differs from one pass (%d×%d)", sc.rows, sc.cols)
		return false
	}
	if !sameStructure(alone, oracle) {
		t.Logf("pattern differs from the sorting oracle (%d×%d, %d contributions)", sc.rows, sc.cols, len(sc.contribs))
		return false
	}
	for i, want := range oracle.Val {
		got := alone.Val[i]
		if got == 0 {
			t.Logf("stored zero at %d", i)
			return false
		}
		tol := 0.0
		if !exact {
			// Positive terms: each of the ≤ maxRuns−1 additions rounds by at
			// most half an ulp of a partial sum no larger than the result.
			tol = float64(sc.maxRuns) * (math.Nextafter(math.Abs(want), math.Inf(1)) - math.Abs(want))
		}
		if math.Abs(got-want) > tol {
			t.Logf("value %d: got %v want %v (tol %g, %d runs)", i, got, want, tol, sc.maxRuns)
			return false
		}
	}
	return true
}

// TestSpAccCombineMatchesOracle is the differential test of the sort-free
// row pass: random contribution counts, overlapping columns, exact
// cancellation to zero, empty rows, dense blocks mixed in, widths 1, 63,
// 64, 65 and > 65 536.
func TestSpAccCombineMatchesOracle(t *testing.T) {
	for _, exact := range []bool{true, false} {
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			return checkScenario(t, r, newScenario(r, exact), exact)
		}
		cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(131))}
		if err := quick.Check(f, cfg); err != nil {
			t.Errorf("exact=%v: %v", exact, err)
		}
	}
}

// FuzzSpAccCombine drives the row pass from raw bytes: byte 0 picks the
// width, then every 3 bytes are (row, col, value); a value byte of 0xff ends
// the current contribution instead. Values are small integers so every
// summation order is exact and the oracle must match bit for bit.
func FuzzSpAccCombine(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})                                            // width 1, nothing buffered
	f.Add([]byte{0, 0, 0, 3, 0, 0, 0xff, 0, 0, 0xfd})           // width 1: 3 then −3 → cancels
	f.Add([]byte{62, 1, 62, 1, 1, 0, 2, 0, 0, 0xff, 1, 62, 4})  // width 63, last column, two runs
	f.Add([]byte{63, 0, 63, 1, 0, 0, 1, 0, 0, 0xff, 0, 63, 2})  // width 64: word boundary
	f.Add([]byte{64, 0, 64, 1, 0, 63, 1, 0, 0, 0xff, 0, 64, 5}) // width 65: second word, one bit
	f.Add([]byte{199, 3, 9, 1, 3, 8, 2, 3, 7, 3, 0, 0, 0xff, 3, 7, 0xfd, 3, 9, 4})
	f.Add([]byte{129, 2, 5, 0, 2, 5, 1}) // explicit zero, then the same column again
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		sc := accScenario{rows: 4, cols: 1 + int(data[0])%200}
		cur := accContrib{runs: map[int][]scenEntry{}}
		for p := 1; p+2 < len(data); p += 3 {
			if data[p+2] == 0xff {
				sc.contribs = append(sc.contribs, cur)
				cur = accContrib{runs: map[int][]scenEntry{}}
				continue
			}
			r := int(data[p]) % sc.rows
			cur.runs[r] = append(cur.runs[r], scenEntry{int32(int(data[p+1]) % sc.cols), float64(int8(data[p+2]))})
		}
		sc.contribs = append(sc.contribs, cur)
		want := oracleCSR(sc)
		terms := sc.terms()
		for name, got := range map[string]*mat.CSR{
			"one pass":   passChunks(sc.rows, sc.cols, terms, [][2]int{{0, sc.rows}}),
			"two chunks": passChunks(sc.rows, sc.cols, terms, [][2]int{{0, sc.rows / 2}, {sc.rows / 2, sc.rows}}),
		} {
			if err := got.Validate(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !sameStructure(got, want) || !slices.Equal(got.Val, want.Val) {
				t.Fatalf("%s diverges from the sorting oracle for %x", name, data)
			}
		}
	})
}

// spaClean reports whether no occupancy bit is set.
func spaClean(p *SPA) bool {
	for _, w := range p.occ {
		if w != 0 {
			return false
		}
	}
	return true
}

// emitAll returns the SPA's current row as EmitSorted yields it.
func emitAll(p *SPA) ([]int32, []float64) {
	cols := make([]int32, len(p.Touched()))
	vals := make([]float64, len(p.Touched()))
	n := p.EmitSorted(cols, vals)
	return cols[:n], vals[:n]
}

// TestSPAEmitSorted checks both sides of the emit crossover, on widths
// around the bitmap word size and beyond 65 536, against a sorted copy.
func TestSPAEmitSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, width := range scenarioWidths {
		spa := NewSPA(width)
		for _, cnt := range []int{0, 1, 2, 5, width / 300, width / 8, width} {
			spa.Reset(width)
			want := map[int32]float64{}
			for i := 0; i < cnt; i++ {
				c := int32(rng.Intn(width))
				v := float64(rng.Intn(5) - 2)
				spa.Add(c, v)
				want[c] += v
			}
			cols, vals := emitAll(spa)
			if !slices.IsSorted(cols) {
				t.Fatalf("width %d, %d adds: emitted columns not ascending", width, cnt)
			}
			nonzero := 0
			for c, v := range want {
				if v != 0 {
					nonzero++
					i, ok := slices.BinarySearch(cols, c)
					if !ok || vals[i] != v {
						t.Fatalf("width %d: column %d missing or wrong", width, c)
					}
				}
			}
			if nonzero != len(cols) {
				t.Fatalf("width %d, %d adds: emitted %d entries, want %d (zeros must be dropped, none duplicated)",
					width, cnt, len(cols), nonzero)
			}
		}
	}
}

// TestSPAResetLeavesNoStaleBit covers the states a worker's SPA is reused
// from: after a row that was emitted, after one that was not, after a row
// dense enough for the whole-bitmap clear, and after growing to a wider
// target.
func TestSPAResetLeavesNoStaleBit(t *testing.T) {
	spa := NewSPA(130)

	spa.Reset(130)
	spa.Add(5, 1)
	spa.Add(129, 2)
	emitAll(spa) // emitted row
	spa.Reset(130)
	if !spaClean(spa) || len(spa.Touched()) != 0 {
		t.Fatal("stale state after an emitted row")
	}

	spa.Add(64, 3) // never emitted
	spa.Reset(130)
	if !spaClean(spa) {
		t.Fatal("stale bit after a row that was not emitted")
	}

	for c := int32(0); c < 130; c++ { // more touched columns than bitmap words
		spa.Add(c, 1)
	}
	emitAll(spa)
	spa.Reset(70)
	if !spaClean(spa) {
		t.Fatal("stale bit after a dense row")
	}

	// A narrower row on the same arrays must not see the old columns.
	spa.Add(69, 4)
	if cols, vals := emitAll(spa); len(cols) != 1 || cols[0] != 69 || vals[0] != 4 {
		t.Fatalf("narrow reuse emitted %v %v", cols, vals)
	}

	// Growth replaces the arrays; the pending row (never emitted) must not
	// leak into the wider one, and an old column must read as fresh.
	spa.Reset(100000)
	if !spaClean(spa) || len(spa.Touched()) != 0 {
		t.Fatal("stale state after width growth")
	}
	spa.Add(69, 7)
	spa.Add(99999, 1)
	if spa.Value(69) != 7 {
		t.Fatalf("stale value after growth: %g", spa.Value(69))
	}
	if cols, _ := emitAll(spa); !slices.Equal(cols, []int32{69, 99999}) {
		t.Fatalf("after growth emitted %v", cols)
	}
}

// TestSparseFinalizeSteadyStateAllocs pins the row pass — a first
// contribution scattered into the total SPA, a merge row folded in, a third
// contribution through the second SPA, two segments — at zero allocations
// once the worker arena has warmed up.
func TestSparseFinalizeSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 300
	a := mat.RandomCOO(rng, n, n, 6*n).ToCSR()
	b := mat.RandomCOO(rng, n, n, 6*n).ToCSR()
	terms := []Term{
		{A: FullCSR(a), B: FullCSR(b)},
		{A: FullCSR(b), B: FullCSR(a), Outer: true},
		{A: FullCSR(a), B: FullCSR(b)},
	}
	scr := NewScratch()
	run := func() {
		scr.BeginTask()
		acc := scr.Acc(n, n)
		acc.Split(2)
		acc.Pass(0, 0, n/2, terms, scr)
		acc.Pass(1, n/2, n, terms, scr)
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("steady-state row pass allocates %.1f times per tile", allocs)
	}
}

// sliceCapBytes walks a value and sums cap × element size over every slice
// it reaches: the bytes an arena keeps resident through its slices.
func sliceCapBytes(v reflect.Value) int64 {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return 0
		}
		return sliceCapBytes(v.Elem())
	case reflect.Struct:
		var b int64
		for i := 0; i < v.NumField(); i++ {
			b += sliceCapBytes(v.Field(i))
		}
		return b
	case reflect.Slice:
		b := int64(v.Cap()) * int64(v.Type().Elem().Size())
		switch v.Type().Elem().Kind() {
		case reflect.Pointer, reflect.Struct, reflect.Slice:
			full := v.Slice(0, v.Cap())
			for i := 0; i < full.Len(); i++ {
				b += sliceCapBytes(full.Index(i))
			}
		}
		return b
	}
	return 0
}

// TestScratchBytesCoversSliceCaps fails if Scratch.Bytes under-reports what
// the arena's slices hold: the reference is computed from the capacities by
// reflection, so a buffer added without accounting shows up here.
func TestScratchBytesCoversSliceCaps(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const n = 257
	a := mat.RandomCOO(rng, n, n, 8*n).ToCSR()
	b := mat.RandomCOO(rng, n, n, 8*n).ToCSR()
	ad := mat.RandomDense(rng, n, n)
	scr := NewScratch()
	for _, rows := range []int{n, n / 2} { // second pass leaves row lengths beyond len, still resident
		scr.BeginTask()
		acc := scr.Acc(rows, n)
		aw := CSRWin{M: a, Rows: rows, Cols: n}
		terms := []Term{{A: aw, B: FullCSR(b)}, {A: aw, B: FullCSR(b), Outer: true}}
		acc.Split(2)
		acc.Pass(0, 0, rows/2, terms, scr)
		acc.Pass(1, rows/2, rows, terms, scr)
		acc.ToCSR()
		aw.ToDenseScratch(scr)
		DSpDScratch(mat.NewDense(n, n), ad, FullCSR(b), scr) // B's column form
	}
	held := sliceCapBytes(reflect.ValueOf(scr))
	if got := scr.Bytes(); got < held {
		t.Fatalf("Scratch.Bytes() = %d, but its slices hold %d bytes", got, held)
	}
	// The up-front figure the row-stream executor accounts with must match
	// what a fresh accumulator holds.
	for _, w := range scenarioWidths {
		if spa := NewSPA(w); SPABytes(w) != sliceCapBytes(reflect.ValueOf(spa)) {
			t.Fatalf("SPABytes(%d) = %d, a fresh SPA holds %d", w, SPABytes(w), sliceCapBytes(reflect.ValueOf(spa)))
		}
	}
}
