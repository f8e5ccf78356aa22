//go:build !purego

package kernels

// useAVX2 selects the vector bodies of kernels_amd64.s. It is set once, from
// CPUID: the assembly needs AVX2 and an OS that saves the YMM registers.
// Building with -tags purego leaves the Go bodies alone.
var useAVX2 = hasAVX2()

func hasAVX2() bool

// axpy4Vec and axpyVec run the 4-aligned main loops of axpy4 and axpy at
// vector width and return the number of elements done (0 when useAVX2 is
// false); the Go bodies do the rest.

//go:noescape
func axpy4Vec(y, x0, x1, x2, x3 []float64, a0, a1, a2, a3 float64) int

//go:noescape
func axpyVec(y, x []float64, alpha float64) int

// probeVec runs ProbeRow's 4-aligned prefix at vector width: it leaves the
// lane partials of the two sums in lanes (x1's, then x2's) and returns the
// cells done and their non-zeros; 0, 0 and lanes untouched when useAVX2 is
// false. nonZerosVec is its count alone, for NonZeros.

//go:noescape
func probeVec(row, x1, x2 []float64, lanes *[8]float64) (int, int64)

//go:noescape
func nonZerosVec(row []float64) (int, int64)

// dots8Vec runs dots8's loop at vector width and returns the entries done
// (0 when useAVX2 is false). It stops before an entry whose panel row lies
// outside panel; the Go body does the rest.

//go:noescape
func dots8Vec(panel []float64, ks []int32, vs []float64, acc *[8]float64) int
