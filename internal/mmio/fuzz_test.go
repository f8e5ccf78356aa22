package mmio

import (
	"bytes"
	"strings"
	"testing"

	"atmatrix/internal/alloccheck"
	"atmatrix/internal/mat"
)

// FuzzReadMatrixMarket checks that arbitrary input never panics the
// parser or makes it allocate more than 128·len(input) + 2 MiB (a
// four-byte "2 1\n" line costs its string, its fields and up to two
// entries in a slice whose every growth step is charged: ≈ 56× measured;
// the fixed part is the 1 MiB read buffer), and that everything it accepts
// is structurally valid and round-trips.
func FuzzReadMatrixMarket(f *testing.F) {
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.5\n")
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 5\n3 3 1\n")
	f.Add("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2\n")
	f.Add("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n% comment\n\n1 1 0\n")
	f.Add("")
	f.Add("%%MatrixMarket")
	f.Fuzz(func(t *testing.T, input string) {
		var a *mat.COO
		var err error
		alloccheck.Bound(t, len(input), 128, 2<<20, func() {
			a, err = ReadMatrixMarket(strings.NewReader(input))
		})
		if err != nil {
			return
		}
		if verr := a.Validate(); verr != nil {
			t.Fatalf("accepted invalid matrix: %v", verr)
		}
		var buf bytes.Buffer
		if werr := WriteMatrixMarket(&buf, a); werr != nil {
			t.Fatalf("cannot re-serialize accepted matrix: %v", werr)
		}
		back, rerr := ReadMatrixMarket(&buf)
		if rerr != nil {
			t.Fatalf("cannot re-read own output: %v", rerr)
		}
		if back.Rows != a.Rows || back.Cols != a.Cols {
			t.Fatal("round trip changed the shape")
		}
	})
}

// FuzzReadBinary checks the binary COO reader against arbitrary bytes:
// never a panic, never more heap than the codec decoders' bound
// (alloccheck.DecodeFactor, DecodeFixed, shared with core's .atm and frame
// decoders), and an accepted stream re-serializes to all of the bytes it
// was read from, footer included.
func FuzzReadBinary(f *testing.F) {
	var buf bytes.Buffer
	seed := mat.NewCOO(3, 3)
	seed.Append(0, 1, 2.5)
	seed.Append(2, 2, -1)
	if err := WriteBinary(&buf, seed); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("ATMCOO1\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, input []byte) {
		var a *mat.COO
		var err error
		alloccheck.Bound(t, len(input), alloccheck.DecodeFactor, alloccheck.DecodeFixed, func() {
			a, err = ReadBinary(bytes.NewReader(input))
		})
		if err != nil {
			return
		}
		if verr := a.Validate(); verr != nil {
			t.Fatalf("accepted invalid matrix: %v", verr)
		}
		var back bytes.Buffer
		if werr := WriteBinary(&back, a); werr != nil {
			t.Fatalf("cannot re-serialize accepted matrix: %v", werr)
		}
		// ReadBinary buffers ahead, so bytes after the footer are not its
		// business; what it decoded is the prefix it re-serializes to.
		if !bytes.HasPrefix(input, back.Bytes()) {
			t.Fatalf("accepted %d bytes that re-serialize to %d different ones", len(input), back.Len())
		}
	})
}
