package core

import (
	"math"

	"atmatrix/internal/mat"
	"atmatrix/internal/mmio"
)

// In-memory integrity: a matrix admitted into a long-lived store carries a
// CRC-32C per tile payload, computed once at admission (SealChecksums) and
// re-verified by the catalog's background scrubber (VerifyChecksums). A
// resident bit flip — cosmic ray, failing DIMM, stray write — is thereby
// detected instead of silently poisoning every later multiplication, the
// same storage-integrity concern that motivates bit-exact compressed
// layouts in main-memory sparse engines.

// SealChecksums computes and stores one CRC-32C per tile payload. Call it
// once the matrix reaches its final, immutable form (admission into a
// store); the sums are carried by the matrix and re-checked with
// VerifyChecksums.
func (a *ATMatrix) SealChecksums() {
	w := mmio.NewWriter(nil)
	sums := make([]uint32, len(a.Tiles))
	for i, t := range a.Tiles {
		sums[i] = t.payloadSum(w)
	}
	a.tileSums = sums
}

// Sealed reports whether SealChecksums has run on this matrix.
func (a *ATMatrix) Sealed() bool { return a.tileSums != nil }

// VerifyChecksums recomputes every tile's payload CRC-32C and compares it
// against the sums stored by SealChecksums. It returns the index of the
// first mismatching tile, or -1 when every tile is intact (or the matrix
// was never sealed — an unsealed matrix has nothing to verify against).
func (a *ATMatrix) VerifyChecksums() int {
	if a.tileSums == nil || len(a.tileSums) != len(a.Tiles) {
		return -1
	}
	w := mmio.NewWriter(nil)
	for i, t := range a.Tiles {
		if t.payloadSum(w) != a.tileSums[i] {
			return i
		}
	}
	return -1
}

// FlipOneBit corrupts the matrix in place by flipping the top mantissa
// bit of the first nonzero stored value (falling back to the first stored
// value when everything is zero). It is the chaos-injection primitive
// behind faultinject's KindBitflip sites: tests and drills use it to plant
// a deterministic silent corruption that the integrity machinery
// (VerifyChecksums, Freivalds verification) must then catch. It reports
// whether a value was found to corrupt.
func (a *ATMatrix) FlipOneBit() bool {
	var fallback []float64
	for _, t := range a.Tiles {
		var vals []float64
		if t.Kind == mat.Sparse {
			vals = t.Sp.Val
		} else {
			vals = t.D.Data
		}
		if len(vals) == 0 {
			continue
		}
		if fallback == nil {
			fallback = vals
		}
		for i, v := range vals {
			if v != 0 {
				vals[i] = flipped(v)
				return true
			}
		}
	}
	if fallback != nil {
		fallback[0] = flipped(fallback[0])
		return true
	}
	return false
}

// flipped is v with its top mantissa bit flipped.
func flipped(v float64) float64 { return math.Float64frombits(math.Float64bits(v) ^ (1 << 51)) }

// payloadSum is the CRC-32C of the tile's payload: the bytes WriteTo writes
// for it after its kind, home and nnz, hashed by the codec writer w.
func (t *Tile) payloadSum(w *mmio.Writer) uint32 {
	w.Reset(nil)
	t.writePayload(w)
	_, crc, _ := w.Footer()
	return crc
}
