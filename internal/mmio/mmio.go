// Package mmio reads and writes sparse matrices in the MatrixMarket
// exchange format used by the Florida (SuiteSparse) collection the paper
// draws its real-world matrices from, plus a compact binary COO format for
// fast reloading of generated matrices.
//
// It also owns the system's one binary codec (codec.go): Writer and Reader
// implement the framing every binary stream follows — the binary COO here,
// and core's .atm files, tile-row frames and cluster shard bodies — with one
// CRC-32C footer rule, one bounded decoder and the one ErrChecksum /
// ErrBadMagic pair.
//
// Supported MatrixMarket variants: `matrix coordinate real|integer|pattern
// general|symmetric|skew-symmetric` and `matrix array real general`.
// Symmetric inputs are expanded to their full (general) form on read,
// matching what the multiplication operators expect.
//
// The reader takes the lines after the size line in place from its read
// buffer. An entry line whose fields are a row and a column of plain digits
// and one value is parsed where it lies, with no allocation; any other line
// (a sign, an extra field, a byte ≥ 0x80, which may belong to a Unicode
// space) is split by strings.Fields, as every line was before. Array values
// are split in place on ' ', '\t', '\r' and '\n', the four bytes they were
// always split on. So the reader accepts exactly the inputs it accepted when
// it built a string per line and per token, and reads the same matrix from
// them.
package mmio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"

	"atmatrix/internal/mat"
)

// mtxReaders holds the 1 MiB read buffers of finished ReadMatrixMarket
// calls, so an upload does not allocate and clear a fresh one.
var mtxReaders = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 1<<20) }}

// ReadMatrixMarket parses a MatrixMarket stream into a COO staging matrix.
func ReadMatrixMarket(r io.Reader) (*mat.COO, error) {
	br := mtxReaders.Get().(*bufio.Reader)
	br.Reset(r)
	defer func() {
		br.Reset(nil)
		mtxReaders.Put(br)
	}()
	header, err := readLine(br)
	if err != nil {
		return nil, fmt.Errorf("mmio: reading header: %w", err)
	}
	fields := strings.Fields(strings.ToLower(header))
	if len(fields) != 5 || fields[0] != "%%matrixmarket" || fields[1] != "matrix" {
		return nil, fmt.Errorf("mmio: malformed MatrixMarket header %q", header)
	}
	layout, valType, symmetry := fields[2], fields[3], fields[4]
	switch layout {
	case "coordinate", "array":
	default:
		return nil, fmt.Errorf("mmio: unsupported layout %q", layout)
	}
	switch valType {
	case "real", "integer", "pattern":
	default:
		return nil, fmt.Errorf("mmio: unsupported value type %q", valType)
	}
	switch symmetry {
	case "general", "symmetric", "skew-symmetric":
	default:
		return nil, fmt.Errorf("mmio: unsupported symmetry %q", symmetry)
	}
	if layout == "array" && (valType == "pattern" || symmetry != "general") {
		return nil, fmt.Errorf("mmio: array layout supports only real general")
	}

	// Skip comments, read the size line.
	var sizeLine string
	for {
		line, err := readLine(br)
		if err != nil {
			return nil, fmt.Errorf("mmio: reading size line: %w", err)
		}
		if strings.HasPrefix(line, "%") || strings.TrimSpace(line) == "" {
			continue
		}
		sizeLine = line
		break
	}
	sz := strings.Fields(sizeLine)
	if layout == "array" {
		if len(sz) != 2 {
			return nil, fmt.Errorf("mmio: malformed array size line %q", sizeLine)
		}
	} else if len(sz) != 3 {
		return nil, fmt.Errorf("mmio: malformed coordinate size line %q", sizeLine)
	}
	rows, err := strconv.Atoi(sz[0])
	if err != nil {
		return nil, fmt.Errorf("mmio: bad row count %q", sz[0])
	}
	cols, err := strconv.Atoi(sz[1])
	if err != nil {
		return nil, fmt.Errorf("mmio: bad column count %q", sz[1])
	}
	if rows < 0 || cols < 0 || rows > 1<<31 || cols > 1<<31 {
		return nil, fmt.Errorf("mmio: unreasonable dimensions %d×%d", rows, cols)
	}
	if symmetry != "general" && rows != cols {
		// The mirrored entry (c, r) of a non-square matrix is out of bounds.
		return nil, fmt.Errorf("mmio: %s matrix must be square, header says %d×%d", symmetry, rows, cols)
	}
	out := mat.NewCOO(rows, cols)

	if layout == "array" {
		// Column-major dense enumeration.
		ls := lineScanner{br: br}
		for c := 0; c < cols; c++ {
			for r := 0; r < rows; r++ {
				tok, err := ls.token()
				if err != nil {
					return nil, fmt.Errorf("mmio: array entry (%d,%d): %w", r, c, err)
				}
				v, err := strconv.ParseFloat(string(tok), 64)
				if err != nil {
					return nil, fmt.Errorf("mmio: array value %q: %w", tok, err)
				}
				if v != 0 {
					out.Append(r, c, v)
				}
			}
		}
		return out, nil
	}

	nnz, err := strconv.Atoi(sz[2])
	if err != nil {
		return nil, fmt.Errorf("mmio: bad nnz %q", sz[2])
	}
	if nnz < 0 || int64(nnz) > int64(rows)*int64(cols) {
		return nil, fmt.Errorf("mmio: header claims %d entries for a %d×%d matrix", nnz, rows, cols)
	}
	want := 3
	if valType == "pattern" {
		want = 2
	}
	// Room for the header's entries is reserved only as far as the input
	// already buffered can hold them, at four bytes a line ("1 1\n"), so
	// the header alone cannot make the reader allocate.
	out.Ent = make([]mat.Entry, 0, min(nnz, br.Buffered()/4))
	ls := lineScanner{br: br}
	for i := 0; i < nnz; i++ {
		line, err := ls.next()
		if err != nil {
			return nil, fmt.Errorf("mmio: entry %d/%d: %w", i+1, nnz, err)
		}
		r, c, v, ok := plainEntry(line, want == 3)
		if !ok {
			f := strings.Fields(string(line))
			if len(f) < want {
				return nil, fmt.Errorf("mmio: entry %d: malformed line %q", i+1, strings.TrimRight(string(line), "\r\n"))
			}
			if r, err = strconv.Atoi(f[0]); err != nil {
				return nil, fmt.Errorf("mmio: entry %d: bad row %q", i+1, f[0])
			}
			if c, err = strconv.Atoi(f[1]); err != nil {
				return nil, fmt.Errorf("mmio: entry %d: bad column %q", i+1, f[1])
			}
			if want == 3 {
				if v, err = strconv.ParseFloat(f[2], 64); err != nil {
					return nil, fmt.Errorf("mmio: entry %d: bad value %q", i+1, f[2])
				}
			}
		}
		r-- // MatrixMarket is 1-based
		c--
		if r < 0 || r >= rows || c < 0 || c >= cols {
			return nil, fmt.Errorf("mmio: entry %d: coordinate (%d,%d) outside %d×%d", i+1, r+1, c+1, rows, cols)
		}
		out.Append(r, c, v)
		if r != c {
			switch symmetry {
			case "symmetric":
				out.Append(c, r, v)
			case "skew-symmetric":
				out.Append(c, r, -v)
			}
		}
	}
	return out, nil
}

// WriteMatrixMarket writes a COO matrix in `coordinate real general` form.
func WriteMatrixMarket(w io.Writer, a *mat.COO) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n"); err != nil {
		return fmt.Errorf("mmio: writing header: %w", err)
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", a.Rows, a.Cols, len(a.Ent)); err != nil {
		return fmt.Errorf("mmio: writing size line: %w", err)
	}
	for _, e := range a.Ent {
		if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", e.Row+1, e.Col+1, e.Val); err != nil {
			return fmt.Errorf("mmio: writing entry: %w", err)
		}
	}
	return bw.Flush()
}

// binaryMagic identifies the compact binary COO format.
const binaryMagic = "ATMCOO1\n"

// WriteBinary writes the compact binary COO representation: a magic
// string, little-endian int64 rows/cols/nnz, then packed
// <int32,int32,float64> triples — exactly the Table I "Bin. Size" layout —
// followed by the codec's CRC-32C footer, so uploads shipped over a wire
// are corruption-detectable end to end.
func WriteBinary(w io.Writer, a *mat.COO) error {
	cw := NewWriter(w)
	cw.String(binaryMagic)
	cw.Int64(int64(a.Rows))
	cw.Int64(int64(a.Cols))
	cw.Int64(int64(len(a.Ent)))
	putSlice(cw, a.Ent, 16, putEntries)
	if _, _, err := cw.Footer(); err != nil {
		return fmt.Errorf("mmio: writing binary COO: %w", err)
	}
	return nil
}

// ReadBinary reads the compact binary COO representation and verifies its
// footer: a damaged stream fails with ErrChecksum, one that is no binary
// COO with ErrBadMagic.
func ReadBinary(r io.Reader) (*mat.COO, error) {
	cr := NewReader(bufio.NewReaderSize(r, ChunkBytes))
	if err := cr.Magic(binaryMagic); err != nil {
		return nil, err
	}
	hdr, err := cr.Int64s(3)
	if err != nil {
		return nil, fmt.Errorf("mmio: reading binary header: %w", err)
	}
	rows, cols, nnz := hdr[0], hdr[1], hdr[2]
	if rows < 0 || cols < 0 || nnz < 0 || rows > 1<<31 || cols > 1<<31 || nnz > rows*cols {
		return nil, fmt.Errorf("mmio: invalid header: %d entries for a %d×%d matrix", nnz, rows, cols)
	}
	ent, err := getSlice(cr, nnz, 16, getEntries)
	if err != nil {
		return nil, fmt.Errorf("mmio: reading binary entries: %w", err)
	}
	if _, err := cr.Footer(); err != nil {
		return nil, err
	}
	out := &mat.COO{Rows: int(rows), Cols: int(cols), Ent: ent}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

func putEntries(b []byte, es []mat.Entry) {
	for i, e := range es {
		p := b[16*i : 16*i+16]
		binary.LittleEndian.PutUint32(p, uint32(e.Row))
		binary.LittleEndian.PutUint32(p[4:], uint32(e.Col))
		binary.LittleEndian.PutUint64(p[8:], math.Float64bits(e.Val))
	}
}

func getEntries(dst []mat.Entry, b []byte) {
	for i := range dst {
		p := b[16*i : 16*i+16]
		dst[i] = mat.Entry{
			Row: int32(binary.LittleEndian.Uint32(p)),
			Col: int32(binary.LittleEndian.Uint32(p[4:])),
			Val: math.Float64frombits(binary.LittleEndian.Uint64(p[8:])),
		}
	}
}

func readLine(br *bufio.Reader) (string, error) {
	line, err := br.ReadString('\n')
	if errors.Is(err, io.EOF) && line != "" {
		return line, nil
	}
	if err != nil {
		return "", err
	}
	return strings.TrimRight(line, "\r\n"), nil
}

// lineScanner reads the lines after the size line in place: a line is a
// slice of the bufio.Reader's buffer, valid until the next read, so it
// costs no allocation unless it is longer than the buffer.
type lineScanner struct {
	br   *bufio.Reader
	long []byte // a line longer than br's buffer, assembled
	rest []byte // the array values left on the current line
}

// next returns the next line, its newline included; the last line may end
// without one.
func (ls *lineScanner) next() ([]byte, error) {
	line, err := ls.br.ReadSlice('\n')
	if err == nil {
		return line, nil
	}
	if errors.Is(err, bufio.ErrBufferFull) {
		ls.long = append(ls.long[:0], line...)
		for errors.Is(err, bufio.ErrBufferFull) {
			line, err = ls.br.ReadSlice('\n')
			ls.long = append(ls.long, line...)
		}
		line = ls.long
	}
	if err != nil && (len(line) == 0 || !errors.Is(err, io.EOF)) {
		return nil, err
	}
	return line, nil
}

// token returns the next array value, reading lines as needed.
func (ls *lineScanner) token() ([]byte, error) {
	for {
		line := ls.rest
		i := 0
		for i < len(line) && arraySpace[line[i]] {
			i++
		}
		j := i
		for j < len(line) && !arraySpace[line[j]] {
			j++
		}
		ls.rest = line[j:]
		if i < j {
			return line[i:j], nil
		}
		next, err := ls.next()
		if err != nil {
			return nil, err
		}
		ls.rest = next
	}
}

// fieldSpace holds the bytes strings.Fields splits an ASCII line on;
// arraySpace the four the array layout has always split its values on.
var (
	fieldSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}
	arraySpace = [256]bool{'\t': true, '\n': true, '\r': true, ' ': true}
)

// plainEntry parses the common entry line in place: a row and a column of
// 1–18 plain digits, each ended by an ASCII space or the line's end, then,
// when value is set, everything up to the trailing spaces as one value.
// ParseFloat accepts no space and no byte ≥ 0x80, so when it accepts that
// value the line's fields were exactly these three, all ASCII, and
// strings.Fields would have split it the same way. ok is false for any
// other line; the caller then splits it with strings.Fields, as it did
// every line before. A pattern entry's value is 1, and the rest of its
// line is not read: no byte there changes what strings.Fields makes of
// the two fields before it.
func plainEntry(line []byte, value bool) (r, c int, v float64, ok bool) {
	p := 0
	if r, p, ok = digits(line, p); !ok {
		return 0, 0, 0, false
	}
	if c, p, ok = digits(line, p); !ok {
		return 0, 0, 0, false
	}
	if !value {
		return r, c, 1, true
	}
	e := len(line)
	for e > p && fieldSpace[line[e-1]] {
		e--
	}
	for p < e && fieldSpace[line[p]] {
		p++
	}
	v, err := strconv.ParseFloat(string(line[p:e]), 64)
	return r, c, v, err == nil
}

// digits reads the field at line[p:], after any ASCII space: it must be 1
// to 18 plain digits, which cannot overflow, ended by a space or the line's
// end.
func digits(line []byte, p int) (n, end int, ok bool) {
	for p < len(line) && fieldSpace[line[p]] {
		p++
	}
	start := p
	for ; p < len(line) && line[p]-'0' <= 9; p++ {
		n = n*10 + int(line[p]-'0')
	}
	ok = p > start && p-start <= 18 && (p == len(line) || fieldSpace[line[p]])
	return n, p, ok
}
