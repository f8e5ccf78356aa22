package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"atmatrix/internal/kernels"
	"atmatrix/internal/mat"
)

func randomEntries(rng *rand.Rand, n, rows, cols int) []mat.Entry {
	ents := make([]mat.Entry, n)
	for i := range ents {
		ents[i] = mat.Entry{Row: int32(rng.Intn(rows)), Col: int32(rng.Intn(cols)), Val: rng.Float64()}
	}
	return ents
}

func rowMajorLess(x, y mat.Entry) bool {
	return x.Row < y.Row || (x.Row == y.Row && x.Col < y.Col)
}

func TestRadixSortMatchesSortSlice(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 1+r.Intn(5000), 1+r.Intn(5000)
		src := randomEntries(r, r.Intn(3000), rows, cols)
		keep := slices.Clone(src)
		want := slices.Clone(src)
		sort.SliceStable(want, func(i, j int) bool { return rowMajorLess(want[i], want[j]) })
		got := sortRowMajor(src, rows, cols)
		return slices.Equal(got, want) && slices.Equal(src, keep)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(141))}); err != nil {
		t.Error(err)
	}
}

func TestRadixSortStability(t *testing.T) {
	// Equal keys (duplicate coordinates) must keep their input order, or
	// the fold would sum them in another order than the upload's.
	src := []mat.Entry{{Row: 2, Col: 1, Val: 1}, {Row: 1, Col: 3, Val: 2}, {Row: 2, Col: 1, Val: 3}, {Row: 1, Col: 3, Val: 4}, {Row: 2, Col: 1, Val: 5}}
	for i := 0; i < 100; i++ {
		src = append(src, mat.Entry{Row: 3, Col: 3, Val: float64(10 + i)})
	}
	var at13, at21, at33 []float64
	for _, e := range sortRowMajor(src, 4, 4) {
		switch e {
		case mat.Entry{Row: 1, Col: 3, Val: e.Val}:
			at13 = append(at13, e.Val)
		case mat.Entry{Row: 2, Col: 1, Val: e.Val}:
			at21 = append(at21, e.Val)
		default:
			at33 = append(at33, e.Val)
		}
	}
	if !slices.Equal(at13, []float64{2, 4}) || !slices.Equal(at21, []float64{1, 3, 5}) || !sort.Float64sAreSorted(at33) || len(at33) != 100 {
		t.Fatalf("stability lost: (1,3) %v, (2,1) %v, (3,3) %v", at13, at21, at33)
	}
}

func TestRadixSortEdgeCases(t *testing.T) {
	if got := sortRowMajor(nil, 4, 4); len(got) != 0 {
		t.Fatal("empty input grew")
	}
	one := []mat.Entry{{Row: 3, Col: 2, Val: 9}}
	if got := sortRowMajor(one, 4, 4); len(got) != 1 || got[0] != one[0] || &got[0] == &one[0] {
		t.Fatal("single element changed or aliased")
	}
	// All keys equal: no pass runs, the order stays, the result is a copy.
	eq := make([]mat.Entry, 200)
	for i := range eq {
		eq[i] = mat.Entry{Row: 7, Col: 7, Val: float64(i)}
	}
	got := sortRowMajor(eq, 1024, 1024)
	if !slices.Equal(got, eq) || &got[0] == &eq[0] {
		t.Fatal("all-equal keys reordered or aliased")
	}
	// One significant byte (a 1×200 matrix), and a 1×1 one with none.
	rng := rand.New(rand.NewSource(1))
	for _, cols := range []int{200, 1} {
		row := randomEntries(rng, 500, 1, cols)
		got = sortRowMajor(row, 1, cols)
		if !slices.IsSortedFunc(got, func(x, y mat.Entry) int { return int(x.Col - y.Col) }) {
			t.Fatalf("1×%d sort broken", cols)
		}
	}
	// Maximum coordinates exercise all eight key bytes.
	const big = math.MaxInt32
	ents := randomEntries(rng, 500, big, big)
	ents = append(ents, mat.Entry{Row: big - 1, Col: big - 1, Val: 1}, mat.Entry{Row: 0, Col: big - 1, Val: 2}, mat.Entry{Row: big - 1, Col: 0, Val: 3})
	got = sortRowMajor(ents, big, big)
	if len(got) != len(ents) || !sort.SliceIsSorted(got, func(i, j int) bool { return rowMajorLess(got[i], got[j]) }) {
		t.Fatal("large-coordinate sort broken")
	}
}

func BenchmarkSortRowMajor(b *testing.B) {
	src := randomEntries(rand.New(rand.NewSource(143)), 500_000, 40_000, 40_000)
	b.Run("radix", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sortRowMajor(src, 40_000, 40_000)
		}
	})
	b.Run("sort.SliceStable", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			work := slices.Clone(src)
			sort.SliceStable(work, func(x, y int) bool { return rowMajorLess(work[x], work[y]) })
		}
	})
}

// csrFill is a PartitionRows fill that hands over the rows of csr.
func csrFill(csr *mat.CSR) func(_ *kernels.Scratch, lo, hi int, b *RowBlock) {
	return func(_ *kernels.Scratch, lo, hi int, b *RowBlock) {
		for r := lo; r < hi; r++ {
			b.NNZ = append(b.NNZ, int32(csr.RowPtr[r+1]-csr.RowPtr[r]))
		}
		b.Col = append(b.Col, csr.ColIdx[csr.RowPtr[lo]:csr.RowPtr[hi]]...)
		b.Val = append(b.Val, csr.Val[csr.RowPtr[lo]:csr.RowPtr[hi]]...)
	}
}

// TestPartitionRowsMatchesOldRoute: rows filled in by row ranges, cut
// cell-balanced over the matrix (odd cases) or in equal ranges (even ones),
// give the layout of Partition(ToCOO()).
func TestPartitionRowsMatchesOldRoute(t *testing.T) {
	for _, topo := range layoutTopologies {
		cfg := testConfig()
		cfg.Topology = topo
		for i, c := range layoutCases(t, cfg) {
			var by *ATMatrix
			if i%2 == 1 {
				by = c.m
			}
			got, _, err := PartitionRows(nil, cfg, 0, c.m.Rows, c.m.Cols, by, csrFill(c.m.ToCSR()))
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if !bytes.Equal(layoutBytes(t, got), layoutBytes(t, refPartition(t, c.m.ToCOO(), cfg))) {
				t.Errorf("%dx%d %s: PartitionRows differs from Partition(ToCOO())", topo.Sockets, topo.CoresPerSocket, c.name)
			}
		}
	}
}

func TestPartitionRowsRejectsBadRows(t *testing.T) {
	cfg := testConfig()
	// The task of the first range hands over every row; the others none.
	one := func(nnz, col []int32, val []float64) error {
		_, _, err := PartitionRows(nil, cfg, 0, 2, 4, nil, func(_ *kernels.Scratch, lo, _ int, b *RowBlock) {
			if lo == 0 {
				b.NNZ, b.Col, b.Val = nnz, col, val
			}
		})
		return err
	}
	if err := one([]int32{2, 1}, []int32{0, 3, 2}, []float64{1, 2, 3}); err != nil {
		t.Fatalf("valid rows rejected: %v", err)
	}
	for name, err := range map[string]error{
		"descending":   one([]int32{2, 0}, []int32{3, 0}, []float64{1, 2}),
		"duplicate":    one([]int32{2, 0}, []int32{1, 1}, []float64{1, 2}),
		"out of range": one([]int32{1, 0}, []int32{4}, []float64{1}),
		"zero":         one([]int32{1, 0}, []int32{1}, []float64{0}),
		"short":        one([]int32{1}, []int32{1}, []float64{1}),
		"ragged":       one([]int32{1, 1}, []int32{1, 2}, []float64{1}),
	} {
		if err == nil || !strings.Contains(err.Error(), "staged rows") {
			t.Errorf("%s rows: err = %v", name, err)
		}
	}
	if _, _, err := PartitionRows(nil, cfg, 0, 0, 4, nil, func(*kernels.Scratch, int, int, *RowBlock) {}); err == nil {
		t.Error("0×4 matrix accepted")
	}
}

// TestPartitionRowsCancelled: a cancelled context ends the stage with the
// context's error, not with a layout of whatever rows were filled.
func TestPartitionRowsCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := PartitionRows(ctx, testConfig(), 0, 8, 8, nil, func(_ *kernels.Scratch, lo, hi int, b *RowBlock) {
		for r := lo; r < hi; r++ {
			b.NNZ = append(b.NNZ, 0)
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
