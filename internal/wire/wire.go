// Package wire provides the byte-level encoding used for every message
// exchanged between machines in the k-machine simulator.
//
// The k-machine model charges algorithms per *bit* crossing a link, so all
// protocol messages are encoded into compact byte strings with these
// helpers rather than passed as Go values. Encoders are append-style
// (allocation-friendly); decoding uses a cursor type that latches errors so
// call sites can decode whole messages and check failure once.
//
//km:roundpure
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrTruncated is reported when a decode runs past the end of the buffer.
var ErrTruncated = errors.New("wire: truncated message")

// Arena is an append-style allocator for message payloads. Encoders grab a
// zero-length scratch slice, append their encoding with the usual
// Append{Uvarint,U64,Bytes,...} helpers, and commit the result; committed
// regions are carved out of large shared chunks, so the per-message heap
// allocation (and the GC scan pressure of hundreds of thousands of small
// byte slices) collapses to one allocation per chunk. Committed bytes are
// never overwritten or reclaimed by the arena — a chunk is garbage
// collected only once no message references it — which makes arena-backed
// payloads safe to hand to the simulator and alias from receivers.
//
// An Arena is single-goroutine (one per machine). At most one grabbed
// buffer may be outstanding: Grab, append, Commit, repeat.
type Arena struct {
	chunk []byte // len = bytes committed, cap = chunk size
	size  int
}

// DefaultArenaChunk is the default arena chunk size.
const DefaultArenaChunk = 64 << 10

// NewArena returns an arena with the given chunk size (0 selects the
// default).
func NewArena(chunkSize int) *Arena {
	if chunkSize <= 0 {
		chunkSize = DefaultArenaChunk
	}
	return &Arena{size: chunkSize}
}

// Grab returns a zero-length scratch buffer with at least hint bytes of
// capacity, backed by the current chunk. Appending beyond the returned
// capacity is safe — the slice transparently escapes to its own heap
// allocation and Commit detects it — but costs the allocation the arena
// exists to avoid, so pass an honest upper bound.
//
//km:hotpath
func (a *Arena) Grab(hint int) []byte {
	if hint < 1 {
		hint = 1
	}
	if cap(a.chunk)-len(a.chunk) < hint {
		size := a.size
		if size < hint {
			size = hint
		}
		a.chunk = make([]byte, 0, size) //kmvet:ignore amortized chunk growth; one make per DefaultArenaChunk of traffic
	}
	return a.chunk[len(a.chunk):]
}

// Commit seals a buffer obtained from Grab: the bytes become part of the
// chunk's committed prefix and the buffer is returned for sending. A
// buffer that escaped the chunk (grew past its capacity) is returned
// unchanged; the chunk space it vacated is reused by the next Grab.
//
//km:hotpath
func (a *Arena) Commit(b []byte) []byte {
	if cap(b) == cap(a.chunk)-len(a.chunk) && cap(b) > 0 {
		a.chunk = a.chunk[:len(a.chunk)+len(b)]
	}
	return b
}

// Copy interns a byte string into the arena and returns the stable copy.
//
//km:hotpath
func (a *Arena) Copy(b []byte) []byte {
	buf := a.Grab(len(b))
	buf = append(buf, b...)
	return a.Commit(buf)
}

// ErrOverflow is reported when a varint does not fit the requested width.
var ErrOverflow = errors.New("wire: varint overflow")

// AppendUvarint appends x in unsigned LEB128 form.
//
//km:hotpath
func AppendUvarint(b []byte, x uint64) []byte {
	return binary.AppendUvarint(b, x)
}

// AppendVarint appends x in zig-zag signed LEB128 form.
//
//km:hotpath
func AppendVarint(b []byte, x int64) []byte {
	return binary.AppendVarint(b, x)
}

// AppendU64 appends x as 8 fixed little-endian bytes.
//
//km:hotpath
func AppendU64(b []byte, x uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, x)
}

// AppendBytes appends a length-prefixed byte string.
//
//km:hotpath
func AppendBytes(b, s []byte) []byte {
	b = AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBool appends a single 0/1 byte.
//
//km:hotpath
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendInts appends each of vs in AppendVarint's form.
func AppendInts(b []byte, vs ...int) []byte {
	for _, v := range vs {
		b = AppendVarint(b, int64(v))
	}
	return b
}

// Reader is a decoding cursor over a received message. The first decoding
// error is latched; subsequent reads return zero values. Check Err (or use
// Done) after decoding a full message.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a cursor over buf.
func NewReader(buf []byte) *Reader {
	return &Reader{buf: buf}
}

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.buf) - r.off }

// Uvarint decodes an unsigned LEB128 value.
//
//km:hotpath
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		if n == 0 {
			r.err = ErrTruncated
		} else {
			r.err = ErrOverflow
		}
		return 0
	}
	r.off += n
	return x
}

// Varint decodes a zig-zag signed LEB128 value.
//
//km:hotpath
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		if n == 0 {
			r.err = ErrTruncated
		} else {
			r.err = ErrOverflow
		}
		return 0
	}
	r.off += n
	return x
}

// U64 decodes 8 fixed little-endian bytes.
//
//km:hotpath
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.Len() < 8 {
		r.err = ErrTruncated
		return 0
	}
	x := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return x
}

// Bytes decodes a length-prefixed byte string. The returned slice aliases
// the underlying buffer.
//
//km:hotpath
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if uint64(r.Len()) < n {
		r.err = ErrTruncated
		return nil
	}
	s := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return s
}

// Bool decodes a single 0/1 byte.
//
//km:hotpath
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if r.Len() < 1 {
		r.err = ErrTruncated
		return false
	}
	v := r.buf[r.off]
	r.off++
	return v != 0
}

// Ints decodes values encoded by AppendInts into each of ps in turn.
func (r *Reader) Ints(ps ...*int) {
	for _, p := range ps {
		*p = int(r.Varint())
	}
}

// Done reports an error unless the message decoded cleanly and completely.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.Len() != 0 {
		return fmt.Errorf("wire: %d trailing bytes", r.Len())
	}
	return nil
}
