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
}

// TestVectorBodiesBoundThemselves calls the assembly directly with operands
// of unequal length, which axpy4 and axpy never pass it: each
// body stops at its own shortest operand, and does nothing when useAVX2 is
// false.
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
	})
}
