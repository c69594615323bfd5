package store

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync/atomic"

	"kmgraph/internal/graph"
)

// Reader serves a kmgs container zero-copy: the file is mmap'd and rows
// are decoded directly out of the mapping, so the resident cost of an
// open store is the page cache's business, not the process heap's.
// Structural metadata (header, degree table, block index) is validated
// eagerly at Open; block payload checksums are verified lazily, once,
// the first time a scan touches each block. Every decode path is
// bounds-checked: corrupted or truncated input yields an error, never a
// panic.
//
// A Reader is safe for concurrent metadata access (N, M, Weighted) and
// for concurrent Source() iterators over one mapping: each iterator is
// single-goroutine like any EdgeSource, but any number of them may run
// in parallel — per-block CRC verification, the only shared mutable
// state, is atomic (racing verifications are idempotent). Close must not
// race with in-flight iterators.
type Reader struct {
	f        *os.File
	data     []byte
	release  func() error
	closed   bool
	n        int
	m        int
	weighted bool

	deg      []byte // degree table (4 bytes per row), inside data
	index    []byte // block index entries, inside data
	nblocks  int
	blockOff []int         // per block: payload offset of block start, +1 entry
	payload  []byte        // edge blocks, inside data
	verified []atomic.Bool // lazily-set per-block CRC verdicts
}

func readFile(f *os.File, size int64) ([]byte, func() error, error) {
	b := make([]byte, size)
	if _, err := io.ReadFull(f, b); err != nil {
		return nil, nil, err
	}
	return b, func() error { return nil }, nil
}

// Open opens the kmgs container at path. Every error branch releases
// whatever was acquired before it — the file on a stat/map failure, the
// file and the mapping on a validation failure — so a failed Open never
// leaks an fd or an mmap.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	release := func() error { return nil }
	fail := func(err error) (*Reader, error) {
		// Unmap before closing the file: both must happen even if one
		// errors, and the mapping must not outlive the descriptor.
		release()
		f.Close()
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		return fail(err)
	}
	data, rel, err := mapFile(f, st.Size())
	if err != nil {
		return fail(err)
	}
	release = rel
	r, err := newReader(data)
	if err != nil {
		return fail(err)
	}
	r.f = f
	r.release = release
	return r, nil
}

func newReader(data []byte) (*Reader, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("store: truncated header (%d bytes)", len(data))
	}
	if string(data[0:4]) != Magic {
		return nil, fmt.Errorf("store: bad magic %q", data[0:4])
	}
	if v := getU32(data[4:]); v != Version {
		return nil, fmt.Errorf("store: unsupported version %d (want %d)", v, Version)
	}
	if got, want := crcOf(data[:40]), getU32(data[40:]); got != want {
		return nil, fmt.Errorf("store: header checksum mismatch (%08x != %08x)", got, want)
	}
	flags := getU64(data[8:])
	if flags&^uint64(flagWeighted) != 0 {
		return nil, fmt.Errorf("store: unknown flags %#x", flags)
	}
	n64, m64 := getU64(data[16:]), getU64(data[24:])
	if n64 > MaxN {
		return nil, fmt.Errorf("store: %w: vertex count %d out of range [0, %d]", ErrLimit, n64, MaxN)
	}
	nblocks := int(getU32(data[36:]))
	r := &Reader{
		data:     data,
		n:        int(n64),
		m:        int(m64),
		weighted: flags&flagWeighted != 0,
		nblocks:  nblocks,
	}

	// Degree table.
	degEnd := headerLen + 4*int64(r.n) + 4
	if int64(len(data)) < degEnd {
		return nil, fmt.Errorf("store: truncated degree table")
	}
	r.deg = data[headerLen : degEnd-4]
	if got, want := crcOf(r.deg), getU32(data[degEnd-4:]); got != want {
		return nil, fmt.Errorf("store: degree table checksum mismatch")
	}
	degSum := uint64(0)
	for u := 0; u < r.n; u++ {
		degSum += uint64(getU32(r.deg[4*u:]))
	}
	if degSum != m64 {
		return nil, fmt.Errorf("store: degree table sums to %d, header says m=%d", degSum, m64)
	}

	// Block index.
	idxEnd := degEnd + indexEntryLen*int64(nblocks) + 4
	if idxEnd < degEnd || int64(len(data)) < idxEnd {
		return nil, fmt.Errorf("store: truncated block index")
	}
	r.index = data[degEnd : idxEnd-4]
	if got, want := crcOf(r.index), getU32(data[idxEnd-4:]); got != want {
		return nil, fmt.Errorf("store: block index checksum mismatch")
	}
	r.payload = data[idxEnd:]
	r.blockOff = make([]int, nblocks+1)
	r.verified = make([]atomic.Bool, nblocks)
	nextRow := 0
	off := 0
	for b := 0; b < nblocks; b++ {
		first := int(getU32(r.index[indexEntryLen*b:]))
		rows := int(getU32(r.index[indexEntryLen*b+4:]))
		blen := int(getU32(r.index[indexEntryLen*b+8:]))
		if first != nextRow || rows <= 0 || first+rows > r.n {
			return nil, fmt.Errorf("store: block %d covers rows [%d,%d), expected to start at %d",
				b, first, first+rows, nextRow)
		}
		nextRow = first + rows
		r.blockOff[b] = off
		if blen < 0 || off+blen < off || off+blen > len(r.payload) {
			return nil, fmt.Errorf("store: block %d overruns payload", b)
		}
		off += blen
	}
	r.blockOff[nblocks] = off
	if off != len(r.payload) {
		return nil, fmt.Errorf("store: %d payload bytes indexed, %d present", off, len(r.payload))
	}
	// Every row with nonzero degree must be covered by some block.
	if nblocks > 0 && nextRow != r.n {
		for u := nextRow; u < r.n; u++ {
			if getU32(r.deg[4*u:]) != 0 {
				return nil, fmt.Errorf("store: row %d has edges but no block", u)
			}
		}
	}
	if nblocks == 0 && m64 != 0 {
		return nil, fmt.Errorf("store: %d edges but no blocks", m64)
	}
	return r, nil
}

// N returns the vertex count.
func (r *Reader) N() int { return r.n }

// M returns the edge count.
func (r *Reader) M() int { return r.m }

// Weighted reports whether the store carries explicit edge weights.
func (r *Reader) Weighted() bool { return r.weighted }

// Close releases the mapping and the file. The Reader and any sources
// derived from it must not be used afterwards. Close is idempotent:
// second and later calls are no-ops returning nil, and a partial failure
// (unmap or file close erroring) never leaves the other half acquired.
func (r *Reader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	var err error
	if r.release != nil {
		err = r.release()
		r.release = nil
	}
	if r.f != nil {
		if cerr := r.f.Close(); err == nil {
			err = cerr
		}
		r.f = nil
	}
	r.data, r.deg, r.index, r.payload = nil, nil, nil, nil
	return err
}

// checkBlock verifies a block's payload checksum once. The verified
// flags are atomic, so concurrent sources may race here safely: the
// payload is immutable, verification is idempotent, and the worst case
// is the same CRC computed twice.
func (r *Reader) checkBlock(b int) error {
	if r.verified[b].Load() {
		return nil
	}
	statCRCVerifications.Add(1)
	blk := r.payload[r.blockOff[b]:r.blockOff[b+1]]
	if got, want := crcOf(blk), getU32(r.index[indexEntryLen*b+12:]); got != want {
		statCRCFailures.Add(1)
		return fmt.Errorf("store: block %d checksum mismatch (%08x != %08x)", b, got, want)
	}
	r.verified[b].Store(true)
	return nil
}

// Source returns an EdgeSource streaming the store in canonical row
// order, decoding straight from the mapping. Each source is
// single-goroutine like any EdgeSource, but any number of concurrent
// sources may stream one Reader in parallel — the serving layer hands
// every worker its own iterator over one shared mapping.
func (r *Reader) Source() graph.EdgeSource { return &readerSource{r: r} }

// readerSource iterates blocks and rows sequentially.
type readerSource struct {
	r     *Reader
	block int    // current block
	row   int    // current row (absolute)
	left  int    // entries left in current row
	prev  uint64 // previous neighbor in current row
	buf   []byte // remaining bytes of current block
	emit  int    // edges emitted
	err   error  // sticky error
}

func (s *readerSource) N() int { return s.r.n }

func (s *readerSource) Reset() error {
	s.block, s.row, s.left, s.prev, s.buf, s.emit, s.err = 0, 0, 0, 0, nil, 0, nil
	return nil
}

// fail latches and returns a stream error.
func (s *readerSource) fail(format string, args ...any) (graph.Edge, error) {
	s.err = fmt.Errorf(format, args...)
	return graph.Edge{}, s.err
}

func (s *readerSource) Next() (graph.Edge, error) {
	if s.err != nil {
		return graph.Edge{}, s.err
	}
	r := s.r
	for {
		if s.left == 0 {
			// Advance to the next row with edges, entering blocks as
			// needed.
			if s.emit == r.m {
				return graph.Edge{}, io.EOF
			}
			if s.buf == nil {
				if s.block >= r.nblocks {
					return s.fail("store: %d of %d edges decoded at end of blocks", s.emit, r.m)
				}
				if err := r.checkBlock(s.block); err != nil {
					s.err = err
					return graph.Edge{}, err
				}
				statBlocksDecoded.Add(1)
				s.buf = r.payload[r.blockOff[s.block]:r.blockOff[s.block+1]]
				s.row = int(getU32(r.index[indexEntryLen*s.block:]))
				s.block++
			}
			blockEnd := int(getU32(r.index[indexEntryLen*(s.block-1):])) +
				int(getU32(r.index[indexEntryLen*(s.block-1)+4:]))
			for s.row < blockEnd && getU32(r.deg[4*s.row:]) == 0 {
				s.row++
			}
			if s.row >= blockEnd {
				if len(s.buf) != 0 {
					return s.fail("store: %d trailing bytes in block %d", len(s.buf), s.block-1)
				}
				s.buf = nil
				continue
			}
			s.left = int(getU32(r.deg[4*s.row:]))
			s.prev = uint64(s.row)
		}
		delta, k := binary.Uvarint(s.buf)
		if k <= 0 {
			return s.fail("store: bad varint in row %d", s.row)
		}
		s.buf = s.buf[k:]
		if delta == 0 || delta >= uint64(r.n) {
			return s.fail("store: neighbor delta %d out of range in row %d", delta, s.row)
		}
		v := s.prev + delta
		if v >= uint64(r.n) {
			return s.fail("store: neighbor %d out of range in row %d", v, s.row)
		}
		s.prev = v
		w := int64(1)
		if r.weighted {
			zw, k := binary.Uvarint(s.buf)
			if k <= 0 {
				return s.fail("store: bad weight varint in row %d", s.row)
			}
			s.buf = s.buf[k:]
			w = unzigzag(zw)
		}
		s.left--
		s.emit++
		u := s.row
		if s.left == 0 {
			s.row++
		}
		return graph.Edge{U: u, V: int(v), W: w}, nil
	}
}
