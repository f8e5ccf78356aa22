package mmio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// The framing rule of every binary stream — .atm files, tile-row frames,
// shard bodies, binary COO: a magic string, little-endian fields, and a
// uint32 CRC-32C footer over every preceding byte. Writer and Reader are its
// one encoder and one decoder, and both return the footer, the stream's
// fingerprint, from the pass that wrote or read it.

// ErrBadMagic reports a stream of some other format; ErrChecksum one whose
// footer is missing or does not match it, damaged after it was written.
var ErrBadMagic, ErrChecksum = errors.New("mmio: bad stream magic"), errors.New("mmio: stream checksum mismatch")

// Residue is the CRC-32C of any framed stream taken over its footer too: a
// CRC appended to the bytes it covers leaves this constant remainder.
const Residue = 0x48674bc7

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ChunkBytes is the Writer's buffer, the most the Reader reads at once and
// the step by which it grows a slice: a bufio.Reader this size passes it.
const ChunkBytes = 1 << 16

// Writer encodes one stream to dst, hashing as it stages bytes. Errors are
// sticky; Footer reports the first. A nil dst only hashes: tile seals are
// the CRC of the bytes a stream would carry.
type Writer struct {
	dst io.Writer
	n   int64 // bytes dst accepted
	crc uint32
	err error
	off int
	buf []byte
}

// NewWriter returns a Writer starting a stream to dst. One that only hashes
// gets 4 KiB, so the CRC reads bytes still in the L1 cache, then drops them.
func NewWriter(dst io.Writer) *Writer {
	if dst == nil {
		return &Writer{buf: make([]byte, 4<<10)}
	}
	return &Writer{dst: dst, buf: make([]byte, ChunkBytes)}
}

// Reset starts a new stream to dst, keeping the buffer.
func (w *Writer) Reset(dst io.Writer) { w.dst, w.n, w.crc, w.err, w.off = dst, 0, 0, nil, 0 }

// room returns the free buffer, flushing first if fewer than size bytes are.
func (w *Writer) room(size int) []byte {
	if len(w.buf)-w.off < size {
		w.flush(true)
	}
	return w.buf[w.off:]
}

func (w *Writer) flush(hash bool) {
	if hash {
		w.crc = crc32.Update(w.crc, castagnoli, w.buf[:w.off])
	}
	if w.dst != nil && w.err == nil {
		k, err := w.dst.Write(w.buf[:w.off])
		w.n, w.err = w.n+int64(k), err
	}
	w.off = 0
}

// String writes a string that fits one chunk (a magic).
func (w *Writer) String(s string)       { w.off += copy(w.room(len(s)), s) }
func (w *Writer) Uint8(v uint8)         { w.room(1)[0] = v; w.off++ }
func (w *Writer) Int32(v int32)         { binary.LittleEndian.PutUint32(w.room(4), uint32(v)); w.off += 4 }
func (w *Writer) Int64(v int64)         { binary.LittleEndian.PutUint64(w.room(8), uint64(v)); w.off += 8 }
func (w *Writer) Int64s(xs []int64)     { putSlice(w, xs, 8, putInt64s) }
func (w *Writer) Int32s(xs []int32)     { putSlice(w, xs, 4, putInt32s) }
func (w *Writer) Float64s(xs []float64) { putSlice(w, xs, 8, putFloat64s) }

// Footer ends the stream with the CRC-32C of everything written since the
// last Reset and returns the stream's length, that CRC and the first error.
func (w *Writer) Footer() (int64, uint32, error) {
	w.flush(true)
	binary.LittleEndian.PutUint32(w.buf, w.crc)
	w.off = 4
	w.flush(false)
	return w.n, w.crc, w.err
}

// putSlice encodes xs a buffer's worth of size-byte elements per enc call.
// The encoders store four elements per bounds check, twice the speed of one.
func putSlice[T any](w *Writer, xs []T, size int, enc func([]byte, []T)) {
	for len(xs) > 0 {
		k := min(len(xs), len(w.room(size))/size)
		enc(w.buf[w.off:w.off+k*size], xs[:k])
		w.off += k * size
		xs = xs[k:]
	}
}

func putInt64s(b []byte, xs []int64) {
	for ; len(xs) >= 4; b, xs = b[32:], xs[4:] {
		c := (*[32]byte)(b)
		binary.LittleEndian.PutUint64(c[:], uint64(xs[0]))
		binary.LittleEndian.PutUint64(c[8:], uint64(xs[1]))
		binary.LittleEndian.PutUint64(c[16:], uint64(xs[2]))
		binary.LittleEndian.PutUint64(c[24:], uint64(xs[3]))
	}
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(x))
	}
}

func putInt32s(b []byte, xs []int32) {
	for ; len(xs) >= 4; b, xs = b[16:], xs[4:] {
		c := (*[16]byte)(b)
		binary.LittleEndian.PutUint32(c[:], uint32(xs[0]))
		binary.LittleEndian.PutUint32(c[4:], uint32(xs[1]))
		binary.LittleEndian.PutUint32(c[8:], uint32(xs[2]))
		binary.LittleEndian.PutUint32(c[12:], uint32(xs[3]))
	}
	for i, x := range xs {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(x))
	}
}

func putFloat64s(b []byte, xs []float64) {
	for ; len(xs) >= 4; b, xs = b[32:], xs[4:] {
		c := (*[32]byte)(b)
		binary.LittleEndian.PutUint64(c[:], math.Float64bits(xs[0]))
		binary.LittleEndian.PutUint64(c[8:], math.Float64bits(xs[1]))
		binary.LittleEndian.PutUint64(c[16:], math.Float64bits(xs[2]))
		binary.LittleEndian.PutUint64(c[24:], math.Float64bits(xs[3]))
	}
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
}

// Reader decodes one stream from src, hashing every byte it delivers. It reads
// exactly what it is asked for (buffer an unbuffered src), and no length it
// reads sizes an allocation: a slice is read a chunk at a time and grows to
// at most four times what has arrived, or to the declared length if that is
// smaller, so an honest stream costs few copies and a lying one its bytes.
type Reader struct {
	src io.Reader
	crc uint32
	buf [ChunkBytes]byte
}

func NewReader(src io.Reader) *Reader { return &Reader{src: src} }

// Reset starts a new stream from src, keeping the buffer.
func (r *Reader) Reset(src io.Reader) { r.src, r.crc = src, 0 }

// Next reads the next n ≤ ChunkBytes bytes, valid until the next call; a
// stream that ends first fails with io.ErrUnexpectedEOF.
func (r *Reader) Next(n int) ([]byte, error) {
	b := r.buf[:n]
	if _, err := io.ReadFull(r.src, b); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	r.crc = crc32.Update(r.crc, castagnoli, b)
	return b, nil
}

// Magic reads the stream's magic: ErrBadMagic unless it is magic.
func (r *Reader) Magic(magic string) error {
	b, err := r.Next(len(magic))
	if err != nil {
		return fmt.Errorf("mmio: reading magic: %w", err)
	}
	if string(b) != magic {
		return fmt.Errorf("%w %q, want %q", ErrBadMagic, b, magic)
	}
	return nil
}

func (r *Reader) Int64s(n int64) ([]int64, error)     { return getSlice(r, n, 8, getInt64s) }
func (r *Reader) Int32s(n int64) ([]int32, error)     { return getSlice(r, n, 4, getInt32s) }
func (r *Reader) Float64s(n int64) ([]float64, error) { return getSlice(r, n, 8, getFloat64s) }

// Footer checks the footer against the CRC-32C of everything read since the
// last Reset and returns it. A missing or short footer fails like a wrong one.
func (r *Reader) Footer() (uint32, error) {
	want := r.crc
	if _, err := io.ReadFull(r.src, r.buf[:4]); err != nil {
		return 0, fmt.Errorf("%w: reading footer: %v", ErrChecksum, err)
	}
	if got := binary.LittleEndian.Uint32(r.buf[:4]); got != want {
		return 0, fmt.Errorf("%w: stream %08x, computed %08x", ErrChecksum, got, want)
	}
	return want, nil
}

// getSlice reads n ≥ 0 size-byte elements a chunk per dec call.
func getSlice[T any](r *Reader, n int64, size int, dec func([]T, []byte)) ([]T, error) {
	per := int64(ChunkBytes / size)
	out := make([]T, 0, min(n, per))
	for m := 0; int64(m) < n; m = len(out) {
		k := int(min(n-int64(m), per))
		b, err := r.Next(k * size)
		if err != nil {
			return nil, err
		}
		if cap(out)-m < k {
			out = append(make([]T, 0, min(n, 4*int64(cap(out)))), out...)
		}
		out = out[:m+k]
		dec(out[m:], b)
	}
	return out, nil
}

func getInt64s(dst []int64, b []byte) {
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

func getInt32s(dst []int32, b []byte) {
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
}

func getFloat64s(dst []float64, b []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}
