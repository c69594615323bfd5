package wire

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestRoundTripScalars(t *testing.T) {
	f := func(a uint64, b int64, c bool, s []byte) bool {
		var buf []byte
		buf = AppendUvarint(buf, a)
		buf = AppendVarint(buf, b)
		buf = AppendBool(buf, c)
		buf = AppendBytes(buf, s)
		buf = AppendU64(buf, a^uint64(b))

		r := NewReader(buf)
		ga := r.Uvarint()
		gb := r.Varint()
		gc := r.Bool()
		gs := r.Bytes()
		gu := r.U64()
		if err := r.Done(); err != nil {
			t.Logf("done: %v", err)
			return false
		}
		return ga == a && gb == b && gc == c && bytes.Equal(gs, s) && gu == a^uint64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTruncated(t *testing.T) {
	var buf []byte
	buf = AppendUvarint(buf, 300)
	buf = AppendBytes(buf, []byte("hello"))

	// Cut the buffer at every prefix length; decoding must either fail
	// cleanly or report trailing state via Done, never panic.
	for cut := 0; cut < len(buf); cut++ {
		r := NewReader(buf[:cut])
		_ = r.Uvarint()
		_ = r.Bytes()
		if r.Done() == nil {
			t.Errorf("cut=%d: expected error", cut)
		}
	}
}

func TestErrorLatches(t *testing.T) {
	r := NewReader(nil)
	if r.U64() != 0 {
		t.Error("U64 on empty should be 0")
	}
	if r.Err() != ErrTruncated {
		t.Errorf("err = %v, want ErrTruncated", r.Err())
	}
	// Subsequent reads keep returning zero values without panicking.
	if r.Uvarint() != 0 || r.Bool() || r.Bytes() != nil {
		t.Error("latched reader should return zero values")
	}
}

func TestTrailingBytes(t *testing.T) {
	buf := AppendUvarint(nil, 5)
	buf = append(buf, 0xff)
	r := NewReader(buf)
	_ = r.Uvarint()
	if err := r.Done(); err == nil {
		t.Error("Done should report trailing bytes")
	}
}

func TestIntHelper(t *testing.T) {
	r := NewReader(AppendInts(nil, 12345, -7))
	var a, b int
	r.Ints(&a, &b)
	if a != 12345 || b != -7 || r.Done() != nil {
		t.Errorf("Ints = %d, %d (%v), want 12345, -7", a, b, r.Done())
	}
}

func TestBytesAliasing(t *testing.T) {
	buf := AppendBytes(nil, []byte{1, 2, 3})
	r := NewReader(buf)
	s := r.Bytes()
	if len(s) != 3 || s[0] != 1 || s[2] != 3 {
		t.Fatalf("bytes = %v", s)
	}
}

func TestArenaGrabCommit(t *testing.T) {
	a := NewArena(64)
	b1 := a.Grab(10)
	b1 = AppendUvarint(b1, 300)
	b1 = a.Commit(b1)
	b2 := a.Grab(10)
	b2 = AppendUvarint(b2, 77)
	b2 = a.Commit(b2)
	// Committed regions must be stable and disjoint.
	r1, r2 := NewReader(b1), NewReader(b2)
	if got := r1.Uvarint(); got != 300 {
		t.Fatalf("first commit = %d, want 300", got)
	}
	if got := r2.Uvarint(); got != 77 {
		t.Fatalf("second commit = %d, want 77", got)
	}
}

func TestArenaChunkRollover(t *testing.T) {
	a := NewArena(32)
	var bufs [][]byte
	for i := 0; i < 20; i++ {
		b := a.Grab(16)
		for j := 0; j < 12; j++ {
			b = append(b, byte(i))
		}
		bufs = append(bufs, a.Commit(b))
	}
	for i, b := range bufs {
		if len(b) != 12 {
			t.Fatalf("buf %d: len %d", i, len(b))
		}
		for _, c := range b {
			if c != byte(i) {
				t.Fatalf("buf %d corrupted: %v", i, b)
			}
		}
	}
}

func TestArenaEscapeOnOvergrow(t *testing.T) {
	a := NewArena(32)
	b := a.Grab(4)
	for i := 0; i < 100; i++ { // grows past the chunk: escapes to the heap
		b = append(b, byte(i))
	}
	b = a.Commit(b)
	// The escaped buffer must be intact, and the arena must still serve
	// fresh, uncorrupted buffers afterwards.
	for i, c := range b {
		if c != byte(i) {
			t.Fatalf("escaped buffer corrupted at %d", i)
		}
	}
	nb := a.Commit(append(a.Grab(8), 0xAA))
	if len(nb) != 1 || nb[0] != 0xAA {
		t.Fatalf("post-escape grab broken: %v", nb)
	}
	if &b[0] == &nb[0] {
		t.Fatal("escaped buffer aliases arena chunk")
	}
}

func TestArenaCopy(t *testing.T) {
	a := NewArena(0)
	src := []byte{9, 8, 7}
	cp := a.Copy(src)
	src[0] = 0
	if cp[0] != 9 || len(cp) != 3 {
		t.Fatalf("copy not stable: %v", cp)
	}
}
