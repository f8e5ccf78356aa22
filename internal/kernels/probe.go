package kernels

// ProbeRow returns a dense row's sums against two probe columns x1 and x2
// and the row's non-zeros (v != 0: a NaN counts, −0 does not). Each sum is
// taken in four lanes, cell c into lane c mod 4, and the lanes are added as
// (l0 + l1) + (l2 + l3). Where the vector body runs (probeVec) it takes the
// 4-aligned prefix and hands its lane partials back; Go does the rest, so
// the bits do not depend on which body ran. The probe columns must be at
// least as long as the row.
//
//atlint:hotpath
func ProbeRow(row, x1, x2 []float64) (s1, s2 float64, nnz int64) {
	n := len(row)
	x1, x2 = x1[:n], x2[:n]
	var lanes [8]float64
	c, nnz := probeVec(row, x1, x2, &lanes)
	a0, a1, a2, a3 := lanes[0], lanes[1], lanes[2], lanes[3]
	b0, b1, b2, b3 := lanes[4], lanes[5], lanes[6], lanes[7]
	// One cell's value is live at a time: with four values live, the eight
	// accumulators no longer fit the registers and two are spilled.
	for ; c+4 <= n; c += 4 {
		v := row[c]
		a0 += v * x1[c]
		b0 += v * x2[c]
		if v != 0 {
			nnz++
		}
		v = row[c+1]
		a1 += v * x1[c+1]
		b1 += v * x2[c+1]
		if v != 0 {
			nnz++
		}
		v = row[c+2]
		a2 += v * x1[c+2]
		b2 += v * x2[c+2]
		if v != 0 {
			nnz++
		}
		v = row[c+3]
		a3 += v * x1[c+3]
		b3 += v * x2[c+3]
		if v != 0 {
			nnz++
		}
	}
	// c is 4-aligned: the tail's cells are lanes 0, 1 and 2.
	if c < n {
		a0 += row[c] * x1[c]
		b0 += row[c] * x2[c]
	}
	if c+1 < n {
		a1 += row[c+1] * x1[c+1]
		b1 += row[c+1] * x2[c+1]
	}
	if c+2 < n {
		a2 += row[c+2] * x1[c+2]
		b2 += row[c+2] * x2[c+2]
	}
	for _, v := range row[c:] {
		if v != 0 {
			nnz++
		}
	}
	return (a0 + a1) + (a2 + a3), (b0 + b1) + (b2 + b3), nnz
}

// NonZeros returns the non-zeros of a row, counted as ProbeRow counts them.
// Where the vector body runs (nonZerosVec) it counts the 4-aligned prefix.
//
//atlint:hotpath
func NonZeros(row []float64) int64 {
	c, nnz := nonZerosVec(row)
	for _, v := range row[c:] {
		if v != 0 {
			nnz++
		}
	}
	return nnz
}
