// Package alloccheck is the allocation bound the decoder fuzz targets
// share: a decoder fed by a peer may allocate in proportion to the bytes it
// was actually given, plus a fixed working set (its read buffer, one
// growth chunk), and never in proportion to a length the input merely
// declares.
package alloccheck

import (
	"runtime"
	"testing"
)

// The bound of every decoder on internal/mmio's codec: slices grown as their
// bytes arrive and per-tile structs (factor); read buffer, chunk and one
// chunk of initial capacity per slice in flight (fixed).
const DecodeFactor, DecodeFixed = 16, 2 << 20

// Bound runs decode and fails the test if the heap bytes allocated while it
// ran exceed factor·inputLen + fixed. The count is runtime.MemStats.TotalAlloc,
// which is cumulative and process-wide: garbage counts (a slice grown by
// doubling is charged for every step), and so does anything another
// goroutine allocates meanwhile — keep fixed generous and the test serial.
func Bound(t testing.TB, inputLen int, factor, fixed uint64, decode func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	got, limit := after.TotalAlloc-before.TotalAlloc, factor*uint64(inputLen)+fixed
	if got > limit {
		t.Fatalf("decoding %d input bytes allocated %d bytes, bound %d·len + %d = %d",
			inputLen, got, factor, fixed, limit)
	}
}
