package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"atmatrix/internal/mmio"
)

// Framed streaming of an AT MATRIX, one tile-row at a time. Where WriteTo
// emits a single ATMAT1 stream that the receiver must buffer whole before
// the footer validates anything, the frame stream chops the matrix into
// per-tile-row units a receiver can consume — and release — one at a time:
//
//	repeated: uint32 little-endian frame length (> 0),
//	          then that many bytes of a complete ATMAT1 stream carrying
//	          the tiles of one tile-row (full matrix dimensions, so every
//	          frame is independently decodable and CRC-verified)
//	uint32 0 terminator
//
// A cluster coordinator merging partial products reads frames under a
// bounded byte window: it acquires window budget for a frame's length
// before reading the frame's bytes, so an unread frame applies TCP
// backpressure to the sender instead of accumulating in coordinator
// memory. Each frame carries its own CRC-32C footer — a flipped bit fails
// that frame's decode with ErrChecksum without waiting for the end of the
// response.

// WriteTileRowFrames serializes the matrix as a tile-row frame stream:
// tiles sharing a Row0 form one frame, frames are emitted in ascending
// Row0 order, and a zero-length terminator frame ends the stream. Returns
// the total bytes written.
func (a *ATMatrix) WriteTileRowFrames(w io.Writer) (int64, error) {
	byRow := make(map[int][]*Tile)
	var rows []int
	for _, t := range a.Tiles {
		if _, ok := byRow[t.Row0]; !ok {
			rows = append(rows, t.Row0)
		}
		byRow[t.Row0] = append(byRow[t.Row0], t)
	}
	sort.Ints(rows)
	var total int64
	var buf bytes.Buffer
	var lenb [4]byte
	enc := mmio.NewWriter(&buf)
	for _, r0 := range rows {
		buf.Reset()
		enc.Reset(&buf)
		if _, _, err := encode(enc, a.Rows, a.Cols, a.BAtomic, byRow[r0]); err != nil {
			return total, fmt.Errorf("core: encoding tile-row %d frame: %w", r0, err)
		}
		binary.LittleEndian.PutUint32(lenb[:], uint32(buf.Len()))
		if _, err := w.Write(lenb[:]); err != nil {
			return total, fmt.Errorf("core: writing frame length: %w", err)
		}
		total += 4
		n, err := w.Write(buf.Bytes())
		total += int64(n)
		if err != nil {
			return total, fmt.Errorf("core: writing tile-row %d frame: %w", r0, err)
		}
	}
	binary.LittleEndian.PutUint32(lenb[:], 0)
	if _, err := w.Write(lenb[:]); err != nil {
		return total, fmt.Errorf("core: writing frame terminator: %w", err)
	}
	return total + 4, nil
}

// frameReader is one frame's source: the stream capped at the frame's
// declared length. It also remembers why the stream stopped inside a frame
// (a transport error, or EOF with bytes still owed), because the decoder
// reports whatever it was reading at the time — "tile 3: values" — and a
// dead connection must not pass for a corrupt tile.
type frameReader struct {
	r   io.Reader
	n   int64 // bytes of the frame not yet read
	err error // why the stream failed inside a frame; nil while it has not
}

func (f *frameReader) Read(p []byte) (int, error) {
	if f.err != nil {
		return 0, f.err
	}
	if f.n <= 0 {
		// The decoder wants more than the frame declared.
		return 0, io.ErrUnexpectedEOF
	}
	if int64(len(p)) > f.n {
		p = p[:f.n]
	}
	n, err := f.r.Read(p)
	f.n -= int64(n)
	if errors.Is(err, io.EOF) {
		if f.n == 0 {
			return n, nil
		}
		err = io.ErrUnexpectedEOF
	}
	f.err = err
	return n, err
}

// ReadTileRowFrames consumes a tile-row frame stream, invoking fn on each
// decoded frame. acquire, when non-nil, is called with the frame's declared
// byte length before the frame is read from r and must return a release
// function — the bounded-reassembly-window hook: blocking in acquire
// stops the read loop, which stops draining r, which backpressures the
// sender. The release runs after fn returns, whatever fn did. fn errors
// abort the stream.
//
// The declared length is a limit, never an allocation size: each frame is
// decoded straight off r through a reader capped at that length, and the
// decoder grows its slices in bounded chunks, so a peer that declares 4 GiB
// and sends seven bytes costs seven bytes. A frame whose matrix ends before
// the declared length, or runs past it, fails as the decoder reports it
// (TileError, ErrChecksum). A stream that ends or fails inside a frame is a
// plain read error (io.ErrUnexpectedEOF or the stream's own) with no decoder
// error in its chain: nothing says the bytes that did arrive were bad.
func ReadTileRowFrames(r io.Reader, acquire func(n int) (func(), error), fn func(*ATMatrix) error) error {
	var lenb [4]byte
	frame := frameReader{r: r}
	dec := mmio.NewReader(&frame)
	for {
		if _, err := io.ReadFull(r, lenb[:]); err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return fmt.Errorf("core: reading frame length: %w", err)
		}
		n := int64(binary.LittleEndian.Uint32(lenb[:]))
		if n == 0 {
			return nil
		}
		release := func() {}
		if acquire != nil {
			var err error
			if release, err = acquire(int(n)); err != nil {
				return fmt.Errorf("core: acquiring frame window: %w", err)
			}
		}
		err := func() error {
			defer release()
			frame.n = n
			dec.Reset(&frame)
			m, _, err := readATMatrix(dec)
			if frame.err != nil {
				return fmt.Errorf("core: reading %d-byte frame: %w", n, frame.err)
			}
			if err != nil {
				return fmt.Errorf("core: decoding %d-byte frame: %w", n, err)
			}
			if frame.n > 0 {
				return fmt.Errorf("core: %d-byte frame has %d bytes after its matrix", n, frame.n)
			}
			return fn(m)
		}()
		if err != nil {
			return err
		}
	}
}
