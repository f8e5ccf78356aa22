//go:build !purego

package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// The vector bodies of kernels_amd64.s are held to the Go bodies, which run
// when useAVX2 is false, bit for bit: every element of the target's backing
// slice, window and margins, compared by math.Float64bits, NaN payloads
// included.
//
// An operation on two NaNs returns one of them, quieted. Which one is the
// compiled Go body's operand order, and the assembly copies it: a product
// x·a keeps x's NaN (axpy4's x_k, axpy's x), each of axpy4's adds keeps the new product's over the running sum's, the final
// add keeps the sum's over y's, and axpy's alpha == 1 loop keeps y's over
// x's. A compiler that swapped an operand would fail here first.

// vecSpecials are the values a drawn float is most often: signed zeros,
// infinities, NaNs (quiet, signalling, with payloads), subnormals.
var vecSpecials = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, -3,
	math.Inf(1), math.Inf(-1),
	math.NaN(),
	math.Float64frombits(0x7ff0000000000001), // signalling NaN
	math.Float64frombits(0xfff80000000abcde), // negative quiet NaN, payload
	math.Float64frombits(0x7ff4000000000123), // signalling NaN, payload
	5e-324, -2.5e-308, math.SmallestNonzeroFloat64 * 3,
	math.MaxFloat64, -math.MaxFloat64,
}

// vecSrc draws a case from bytes, so that the fuzzer can steer it; an
// exhausted source reads as zeros.
type vecSrc struct{ b []byte }

func (s *vecSrc) byte() int {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return int(c)
}

// float is one of vecSpecials half the time, a small ordinary value a
// quarter, and raw bits otherwise.
func (s *vecSrc) float() float64 {
	c := s.byte()
	switch {
	case c < 128:
		return vecSpecials[c%len(vecSpecials)]
	case c < 192:
		return float64(c-160) / 7
	}
	var u uint64
	for i := 0; i < 8; i++ {
		u = u<<8 | uint64(s.byte())
	}
	return math.Float64frombits(u)
}

// floats is a backing slice of n drawn values.
func (s *vecSrc) floats(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = s.float()
	}
	return v
}

// vectorCase draws one call of axpy4 or axpy from data, makes it with the
// vector bodies and with the Go bodies on copies of one target, and reports
// the first difference in the target's bits. Header bytes: kernel, length
// (0–67), window offset in the target's backing slice (0–3), then the
// scalars.
func vectorCase(data []byte) error {
	s := &vecSrc{data}
	kind, n, off := s.byte()%2, s.byte()%68, s.byte()%4
	var call func(y []float64)
	var yn int // target window length
	switch kind {
	case 0:
		a0, a1, a2, a3 := s.float(), s.float(), s.float(), s.float()
		var xs [4][]float64
		for k := range xs {
			// Some operands longer or shorter than y, each at its own
			// offset: axpy4 runs on the shortest.
			xl := n
			if d := s.byte() % 8; d < 3 {
				xl = max(0, n+d-1)
			}
			xo := s.byte() % 4
			xs[k] = s.floats(xl + xo + 3)[xo : xo+xl]
		}
		yn = n
		call = func(y []float64) { axpy4(y, xs[0], xs[1], xs[2], xs[3], a0, a1, a2, a3) }
	default:
		alpha := s.float()
		xo := s.byte() % 4
		x := s.floats(n + xo + 3)[xo : xo+n]
		yn = n
		call = func(y []float64) { axpy(y, x, alpha) }
	}
	y := s.floats(yn + off + 3)
	got := runVec(true, y, off, yn, call)
	want := runVec(false, y, off, yn, call)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("kernel %d, n %d, offset %d: y backing[%d] = %v (%#x) in assembly, %v (%#x) in Go",
				kind, n, off, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	return nil
}

// runVec makes call on a copy of backing, its window [off, off+n), with the
// vector bodies on or off, and returns the copy.
func runVec(vec bool, backing []float64, off, n int, call func([]float64)) []float64 {
	defer func(v bool) { useAVX2 = v }(useAVX2)
	useAVX2 = vec
	y := slices.Clone(backing)
	call(y[off : off+n])
	return y
}

// probeCase draws one call of ProbeRow or NonZeros from data, makes it with
// the vector bodies and with the Go bodies, and reports a difference in the
// sums' bits or the count. Header bytes: kernel, length (0–67), then the
// offsets (0–3) of the row and of the two probe columns in their backing
// slices, whose lengths run past the row's. Two NaN sums agree whatever
// their payloads: probe sums are not product bytes, and which NaN the Go
// body's add of two returns is the compiler's operand order, which differs
// between a plain and a fuzzing build.
func probeCase(data []byte) error {
	s := &vecSrc{data}
	kind, n := s.byte()%2, s.byte()%68
	ro, o1, o2 := s.byte()%4, s.byte()%4, s.byte()%4
	row := s.floats(n + ro + 3)[ro : ro+n]
	x1 := s.floats(n + o1 + 3)[o1:]
	x2 := s.floats(n + o2 + 3)[o2:]
	run := func(vec bool) (s1, s2 float64, nnz int64) {
		defer func(v bool) { useAVX2 = v }(useAVX2)
		useAVX2 = vec
		if kind == 0 {
			return ProbeRow(row, x1, x2)
		}
		return 0, 0, NonZeros(row)
	}
	g1, g2, gn := run(true)
	w1, w2, wn := run(false)
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	if !same(g1, w1) || !same(g2, w2) || gn != wn {
		return fmt.Errorf("probe kernel %d, n %d, offsets %d/%d/%d: (%v %#x, %v %#x, %d) in assembly, (%v %#x, %v %#x, %d) in Go",
			kind, n, ro, o1, o2, g1, math.Float64bits(g1), g2, math.Float64bits(g2), gn, w1, math.Float64bits(w1), w2, math.Float64bits(w2), wn)
	}
	return nil
}

// dotsCase draws one call of dots8 from data, makes it with the vector body
// and with the Go body on copies of one set of lanes, and reports the first
// difference in the lanes' bits. Header bytes: entries (0–67) and panel
// rows (1–16), then each entry's k, the panel's cells, the entries' B
// values and the lanes. Two NaN lanes agree whatever their payloads, as in
// probeCase: which NaN the Go body's product of two returns differs between
// a plain and a fuzzing build.
func dotsCase(data []byte) error {
	s := &vecSrc{data}
	n, rows := s.byte()%68, 1+s.byte()%16
	ks := make([]int32, n)
	for q := range ks {
		ks[q] = int32(s.byte() % rows)
	}
	panel := s.floats(rows * 8)
	vs := s.floats(n)
	var lanes [8]float64
	copy(lanes[:], s.floats(8))
	run := func(vec bool) [8]float64 {
		defer func(v bool) { useAVX2 = v }(useAVX2)
		useAVX2 = vec
		acc := lanes
		dots8(panel, ks, vs, &acc)
		return acc
	}
	got, want := run(true), run(false)
	for r := range want {
		if math.Float64bits(got[r]) != math.Float64bits(want[r]) && !(math.IsNaN(got[r]) && math.IsNaN(want[r])) {
			return fmt.Errorf("dots, n %d, panel rows %d: lane %d = %v (%#x) in assembly, %v (%#x) in Go",
				n, rows, r, got[r], math.Float64bits(got[r]), want[r], math.Float64bits(want[r]))
		}
	}
	return nil
}

func TestVectorKernelsBitIdentical(t *testing.T) {
	if !hasAVX2() {
		t.Skip("no AVX2: the Go bodies are the only ones")
	}
	// Every kernel at every length 0–67 (tails 0–3) and window offset 0–3,
	// with each special value as the scalar.
	r := rand.New(rand.NewSource(40))
	data := make([]byte, 4096)
	for kind := 0; kind < 2; kind++ {
		for n := 0; n < 68; n++ {
			for off := 0; off < 4; off++ {
				for a := range vecSpecials {
					r.Read(data)
					data[0], data[1], data[2] = byte(kind), byte(n), byte(off)
					for k := 3; k < 7; k++ {
						data[k] = byte(a) // a special, drawn as the scalar(s)
					}
					if err := vectorCase(data); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		data := make([]byte, 1024+r.Intn(3072))
		r.Read(data)
		if err := vectorCase(data); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000, Rand: rand.New(rand.NewSource(41))}); err != nil {
		t.Fatal(err)
	}
	// ProbeRow and NonZeros at every length 0–67 and every offset of the
	// row and the probe columns, on rows drawn half from vecSpecials; then
	// on rows of one special, each with a ±1 probe.
	pr := rand.New(rand.NewSource(43))
	for kind := 0; kind < 2; kind++ {
		for n := 0; n < 68; n++ {
			for offs := 0; offs < 64; offs++ {
				pr.Read(data)
				data[0], data[1] = byte(kind), byte(n)
				data[2], data[3], data[4] = byte(offs%4), byte(offs/4%4), byte(offs/16)
				if err := probeCase(data); err != nil {
					t.Fatal(err)
				}
			}
			for a := range vecSpecials {
				data[0], data[1], data[2], data[3], data[4] = byte(kind), byte(n), byte(a%4), 0, byte(a%3)
				rowEnd := 5 + n + a%4 + 3
				for i := 5; i < len(data); i++ {
					data[i] = byte(a) // the row's cells, one byte each
					if i >= rowEnd {
						data[i] = byte(160 + 7*(i%2*2-1)) // ±1, float's small values
					}
				}
				if err := probeCase(data); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	g := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		data := make([]byte, 256+r.Intn(1024))
		r.Read(data)
		if err := probeCase(data); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 5000, Rand: rand.New(rand.NewSource(44))}); err != nil {
		t.Fatal(err)
	}
	// dots8 at every length 0–67 on panels of one special, then on panels
	// drawn half from vecSpecials.
	dr := rand.New(rand.NewSource(48))
	for n := 0; n < 68; n++ {
		for a := range vecSpecials {
			dr.Read(data)
			rows := 1 + a%16
			data[0], data[1] = byte(n), byte(rows-1)
			for i := 2 + n; i < 2+n+rows*8; i++ {
				data[i] = byte(a) // the panel's cells, one byte each
			}
			if err := dotsCase(data); err != nil {
				t.Fatal(err)
			}
		}
	}
	h := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		data := make([]byte, 256+r.Intn(1024))
		r.Read(data)
		if err := dotsCase(data); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(h, &quick.Config{MaxCount: 5000, Rand: rand.New(rand.NewSource(49))}); err != nil {
		t.Fatal(err)
	}
}

// TestVectorBodiesBoundThemselves calls the assembly directly with operands
// of unequal length, which axpy4, axpy and dots8 never pass it: each body
// stops at its own shortest operand, dots8Vec also before a k whose panel
// row is not wholly inside the panel, and each does nothing when useAVX2
// is false.
func TestVectorBodiesBoundThemselves(t *testing.T) {
	if !hasAVX2() {
		t.Skip("no AVX2: the Go bodies are the only ones")
	}
	defer func(v bool) { useAVX2 = v }(useAVX2)
	y, x := make([]float64, 12), make([]float64, 12)
	for _, vec := range []bool{true, false} {
		useAVX2 = vec
		want := func(n int) int {
			if vec {
				return n
			}
			return 0
		}
		if got := axpy4Vec(y, x, x, x[:7], x, 1, 2, 3, 4); got != want(4) {
			t.Errorf("useAVX2 %v: axpy4Vec with a 7-long x2 did %d, want %d", vec, got, want(4))
		}
		if got := axpyVec(y[:11], x, 2); got != want(8) {
			t.Errorf("useAVX2 %v: axpyVec with an 11-long y did %d, want %d", vec, got, want(8))
		}
		var acc [8]float64
		for _, c := range []struct {
			name  string
			panel int
			ks    []int32
			vs    int
			done  int
		}{
			{"k 3 of a 3-row panel", 24, []int32{0, 1, 3, 2}, 4, 2},
			{"k −1", 24, []int32{0, -1, 1}, 3, 1},
			{"k 2 of a 20-cell panel", 20, []int32{1, 0, 2}, 3, 2},
			{"a 3-long vs", 24, []int32{0, 1, 2, 2, 1}, 3, 3},
		} {
			if got := dots8Vec(x[:0:0], c.ks, x[:c.vs], &acc); got != 0 {
				t.Errorf("useAVX2 %v: dots8Vec on an empty panel did %d, want 0", vec, got)
			}
			panel := make([]float64, c.panel)
			if got := dots8Vec(panel, c.ks, x[:c.vs], &acc); got != want(c.done) {
				t.Errorf("useAVX2 %v: dots8Vec with %s did %d, want %d", vec, c.name, got, want(c.done))
			}
		}
	}
}

func FuzzVectorKernels(f *testing.F) {
	if !hasAVX2() {
		f.Skip("no AVX2: the Go bodies are the only ones")
	}
	r := rand.New(rand.NewSource(42))
	for kind := byte(0); kind < 2; kind++ {
		for _, n := range []byte{0, 5, 16, 67} {
			data := make([]byte, 512)
			r.Read(data)
			data[0], data[1] = kind, n
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := vectorCase(data); err != nil {
			t.Fatal(err)
		}
		if err := probeCase(data); err != nil {
			t.Fatal(err)
		}
		if err := dotsCase(data); err != nil {
			t.Fatal(err)
		}
	})
}

var probeSink int64

// BenchmarkProbeRow times the dense epilogue's kernels on a row of 512
// cells (a 512-wide dense result tile) and of 4096, at 60 % fill against ±1
// probes, with the vector bodies and with the Go bodies alone.
func BenchmarkProbeRow(b *testing.B) {
	defer func(v bool) { useAVX2 = v }(useAVX2)
	r := rand.New(rand.NewSource(47))
	for _, n := range []int{512, 4096} {
		row, x1, x2 := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range row {
			if r.Intn(10) < 6 {
				row[i] = r.NormFloat64()
			}
			x1[i], x2[i] = float64(r.Intn(2)*2-1), float64(r.Intn(2)*2-1)
		}
		for _, vec := range []bool{true, false} {
			body := map[bool]string{true: "avx2", false: "go"}[vec]
			b.Run(fmt.Sprintf("probe/%s/%d", body, n), func(b *testing.B) {
				useAVX2 = vec && hasAVX2()
				for i := 0; i < b.N; i++ {
					_, _, n := ProbeRow(row, x1, x2)
					probeSink += n
				}
			})
			b.Run(fmt.Sprintf("count/%s/%d", body, n), func(b *testing.B) {
				useAVX2 = vec && hasAVX2()
				for i := 0; i < b.N; i++ {
					probeSink += NonZeros(row)
				}
			})
		}
	}
}
