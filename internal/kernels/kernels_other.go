//go:build !amd64 || purego

package kernels

// Without the assembly of kernels_amd64.s the Go loops of axpy4, axpy,
// dots8, ProbeRow and NonZeros run from the first element.

func axpy4Vec(y, x0, x1, x2, x3 []float64, a0, a1, a2, a3 float64) int { return 0 }

func axpyVec(y, x []float64, alpha float64) int { return 0 }

func probeVec(row, x1, x2 []float64, lanes *[8]float64) (int, int64) { return 0, 0 }

func nonZerosVec(row []float64) (int, int64) { return 0, 0 }

func dots8Vec(panel []float64, ks []int32, vs []float64, acc *[8]float64) int { return 0 }
