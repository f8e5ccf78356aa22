package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"

	"atmatrix/internal/alloccheck"
	"atmatrix/internal/mat"
)

func fuzzSeedMatrix(f *testing.F) *ATMatrix {
	f.Helper()
	rng := rand.New(rand.NewSource(1))
	am, _, err := Partition(mat.RandomCOO(rng, 64, 64, 800), testConfig())
	if err != nil {
		f.Fatal(err)
	}
	return am
}

// FuzzReadATMatrix checks the AT MATRIX deserializer against arbitrary
// bytes: it must never panic or allocate beyond the codec decoders' bound
// (alloccheck.DecodeFactor, DecodeFixed), and
// anything it accepts must satisfy the structural invariants and
// re-serialize to the bytes it was read from.
func FuzzReadATMatrix(f *testing.F) {
	var buf bytes.Buffer
	if _, err := fuzzSeedMatrix(f).WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("ATMAT1\n\x00"))
	f.Add([]byte{})
	// A header declaring the largest grid the decoder admits (2^28 blocks)
	// and nothing else.
	grid := binary.LittleEndian.AppendUint64([]byte(atMagic), 1<<14)
	grid = binary.LittleEndian.AppendUint64(grid, 1<<14)
	grid = binary.LittleEndian.AppendUint64(grid, 1)
	f.Add(binary.LittleEndian.AppendUint64(grid, 0))
	f.Fuzz(func(t *testing.T, input []byte) {
		var got *ATMatrix
		var err error
		r := bytes.NewReader(input)
		alloccheck.Bound(t, len(input), alloccheck.DecodeFactor, alloccheck.DecodeFixed, func() {
			got, err = ReadATMatrix(r)
		})
		if err != nil {
			return
		}
		if verr := got.Validate(); verr != nil {
			t.Fatalf("accepted invalid AT MATRIX: %v", verr)
		}
		var back bytes.Buffer
		if _, err := got.WriteTo(&back); err != nil {
			t.Fatalf("cannot re-serialize accepted matrix: %v", err)
		}
		// ReadATMatrix buffers ahead, so bytes after the footer are not its
		// business; what it decoded is the prefix it re-serializes to.
		if !bytes.HasPrefix(input, back.Bytes()) {
			t.Fatalf("accepted %d bytes that re-serialize to %d different ones", len(input), back.Len())
		}
	})
}

// FuzzReadTileRowFrames checks the frame reader a coordinator points at a
// worker's reply: never a panic, never more memory than the bytes delivered
// account for (a frame length is a limit, not a size), and a stream it
// accepts re-serializes frame by frame to exactly the bytes consumed.
func FuzzReadTileRowFrames(f *testing.F) {
	var buf bytes.Buffer
	if _, err := fuzzSeedMatrix(f).WriteTileRowFrames(&buf); err != nil {
		f.Fatal(err)
	}
	real := buf.Bytes()
	f.Add(real)
	f.Add(real[:len(real)/2])
	f.Add(hostileFrame)
	f.Add(append(real[:len(real)-4:len(real)-4], 0xff, 0xff, 0xff, 0xff, 'A', 'T'))
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, input []byte) {
		var frames []*ATMatrix
		var err error
		r := bytes.NewReader(input)
		alloccheck.Bound(t, len(input), alloccheck.DecodeFactor, alloccheck.DecodeFixed, func() {
			err = ReadTileRowFrames(r, nil, func(m *ATMatrix) error {
				frames = append(frames, m)
				return nil
			})
		})
		if err != nil {
			if errors.Is(err, io.EOF) {
				t.Fatalf("failed stream reports a clean end: %v", err)
			}
			return
		}
		var back, frame bytes.Buffer
		for _, m := range frames {
			frame.Reset()
			if _, err := m.WriteTo(&frame); err != nil {
				t.Fatalf("cannot re-serialize accepted frame: %v", err)
			}
			back.Write(binary.LittleEndian.AppendUint32(nil, uint32(frame.Len())))
			back.Write(frame.Bytes())
		}
		back.Write([]byte{0, 0, 0, 0})
		if consumed := input[:len(input)-r.Len()]; !bytes.Equal(consumed, back.Bytes()) {
			t.Fatalf("accepted %d bytes that re-serialize to %d different ones", len(consumed), back.Len())
		}
	})
}
