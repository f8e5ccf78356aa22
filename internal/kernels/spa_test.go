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

// oracleCSR is the finalize this package shipped before sorted runs: gather
// every buffered (col, val) pair of a row, comparison-sort the pairs by
// column, sum duplicates in sorted order, drop exact zeros. It reads the
// accumulator without changing it and is kept as the reference the
// sort-free combine is tested against.
func oracleCSR(s *SpAcc) *mat.CSR {
	type entry struct {
		col int32
		val float64
	}
	out := mat.NewCSR(s.Rows, s.Cols)
	for r := range s.rows {
		run := make([]entry, len(s.rows[r].cols))
		for i, c := range s.rows[r].cols {
			run[i] = entry{c, s.rows[r].vals[i]}
		}
		slices.SortFunc(run, func(a, b entry) int { return int(a.col) - int(b.col) })
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
// per contribution, what each row receives. Replaying it yields identical
// accumulators, so finalize strategies can be compared on equal input.
type accScenario struct {
	rows, cols int
	contribs   []accContrib
	maxRuns    int // most runs any row receives
}

type accContrib struct {
	dense *mat.Dense // non-nil: fed through AddDense at (r0, c0)
	r0    int
	c0    int
	runs  map[int][]scenEntry // else: row → entries in scatter order, fed through a SPA
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

// replay feeds the history into a fresh accumulator.
func (sc accScenario) replay() *SpAcc {
	acc := NewSpAcc(sc.rows, sc.cols)
	spa := NewSPA(sc.cols)
	for _, ct := range sc.contribs {
		if ct.dense != nil {
			acc.AddDense(ct.dense, ct.r0, ct.c0)
			continue
		}
		for row := 0; row < sc.rows; row++ {
			spa.Reset(sc.cols)
			for _, e := range ct.runs[row] {
				spa.Add(e.col, e.val)
			}
			acc.FlushRow(row, spa)
		}
	}
	return acc
}

// sameStructure reports whether two CSR matrices hold the same pattern.
func sameStructure(a, b *mat.CSR) bool {
	return slices.Equal(a.RowPtr, b.RowPtr) && slices.Equal(a.ColIdx, b.ColIdx)
}

// checkScenario runs the three finalize routes on one history: ToCSR alone,
// CombineRows over a random chunking (each chunk with its own SPA, as the
// row fan-out does) followed by ToCSR, and the sorting oracle.
func checkScenario(t *testing.T, r *rand.Rand, sc accScenario, exact bool) bool {
	oracle := oracleCSR(sc.replay())
	alone := sc.replay().ToCSR()

	chunked := sc.replay()
	for lo := 0; lo < sc.rows; {
		hi := lo + 1 + r.Intn(sc.rows-lo)
		chunked.CombineRows(lo, hi, NewSPA(1))
		lo = hi
	}
	for i := range chunked.rows {
		if chunked.rows[i].unsorted {
			t.Logf("row %d still unsorted after CombineRows", i)
			return false
		}
	}
	combined := chunked.ToCSR()

	if err := alone.Validate(); err != nil {
		t.Logf("ToCSR result invalid: %v", err)
		return false
	}
	// Chunking and who combines must not matter at all: bit-identical.
	if !sameStructure(alone, combined) || !slices.Equal(alone.Val, combined.Val) {
		t.Logf("CombineRows-then-ToCSR differs from ToCSR alone (%d×%d)", sc.rows, sc.cols)
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
// finalize: random run counts, overlapping columns, exact cancellation to
// zero, empty rows, AddDense mixed in, widths 1, 63, 64, 65 and > 65 536.
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

// FuzzSpAccCombine drives the combine from raw bytes: byte 0 picks the
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
		const rows = 4
		cols := 1 + int(data[0])%200
		build := func() *SpAcc {
			acc := NewSpAcc(rows, cols)
			spas := make([]*SPA, rows)
			flush := func() {
				for r, spa := range spas {
					if spa != nil {
						acc.FlushRow(r, spa)
						spas[r] = nil
					}
				}
			}
			for p := 1; p+2 < len(data); p += 3 {
				if data[p+2] == 0xff {
					flush()
					continue
				}
				r := int(data[p]) % rows
				if spas[r] == nil {
					spas[r] = NewSPA(cols)
					spas[r].Reset(cols)
				}
				spas[r].Add(int32(int(data[p+1])%cols), float64(int8(data[p+2])))
			}
			flush()
			return acc
		}
		want := oracleCSR(build())
		alone := build().ToCSR()
		chunked := build()
		chunked.CombineRows(0, rows/2, NewSPA(cols))
		chunked.CombineRows(rows/2, rows, NewSPA(1))
		combined := chunked.ToCSR()
		for name, got := range map[string]*mat.CSR{"ToCSR": alone, "CombineRows+ToCSR": combined} {
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

// TestSparseFinalizeSteadyStateAllocs pins the hot routines — kernel flush
// (ordered emit), a second overlapping contribution, and the per-chunk
// combine — at zero allocations once the worker arena has warmed up.
func TestSparseFinalizeSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 300
	a := mat.RandomCOO(rng, n, n, 6*n).ToCSR()
	b := mat.RandomCOO(rng, n, n, 6*n).ToCSR()
	scr := NewScratch()
	run := func() {
		scr.BeginTask()
		acc := scr.Acc(n, n)
		SpSpSp(acc, 0, 0, FullCSR(a), FullCSR(b), scr.SPA())
		OuterSpSp(acc, 0, 0, FullCSR(b), FullCSR(a), scr.Merge())
		SpSpSp(acc, 0, 0, FullCSR(a), FullCSR(b), scr.SPA())
		acc.CombineRows(0, n, scr.SPA())
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("steady-state flush+combine allocates %.1f times per tile", allocs)
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
	scr := NewScratch()
	for _, rows := range []int{n, n / 2} { // second pass leaves rows beyond len, still resident
		scr.BeginTask()
		acc := scr.Acc(rows, n)
		aw := CSRWin{M: a, Rows: rows, Cols: n}
		SpSpSp(acc, 0, 0, aw, FullCSR(b), scr.SPA())
		OuterSpSp(acc, 0, 0, aw, FullCSR(b), scr.Merge())
		acc.ToCSR() // interleaved runs nobody combined: allocates the accumulator's own SPA
		aw.ToDenseScratch(scr)
		DenseToCSRScratch(mat.RandomDense(rng, 9, 9), scr)
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
