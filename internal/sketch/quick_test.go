package sketch

import (
	"testing"
	"testing/quick"
)

// Property-based tests on the sketch algebra (testing/quick).

func TestQuickAddCommutative(t *testing.T) {
	p := Params{N: 256, Levels: 10, Buckets: 4, Reps: 2}
	f := func(idsA, idsB []uint16, seed uint16) bool {
		sd := uint64(seed)
		ab := New(p, sd)
		ba := New(p, sd)
		a1, b1 := New(p, sd), New(p, sd)
		for _, id := range idsA {
			a1.AddItem(uint64(id)%(256*256), 1)
		}
		for _, id := range idsB {
			b1.AddItem(uint64(id)%(256*256), -1)
		}
		// ab = a + b ; ba = b + a
		if err := ab.Add(a1); err != nil {
			return false
		}
		if err := ab.Add(b1); err != nil {
			return false
		}
		if err := ba.Add(b1); err != nil {
			return false
		}
		if err := ba.Add(a1); err != nil {
			return false
		}
		for i := range ab.cells {
			if ab.cells[i] != ba.cells[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickInverseCancels(t *testing.T) {
	p := Params{N: 256, Levels: 10, Buckets: 4, Reps: 2}
	f := func(ids []uint16, seed uint16) bool {
		s := New(p, uint64(seed))
		for _, id := range ids {
			s.AddItem(uint64(id)%(256*256), 1)
		}
		for _, id := range ids {
			s.AddItem(uint64(id)%(256*256), -1)
		}
		return isZero(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickEncodeDecodeIdentity(t *testing.T) {
	p := Params{N: 256, Levels: 10, Buckets: 4, Reps: 2}
	f := func(ids []uint16, signs []bool, seed uint16) bool {
		s := New(p, uint64(seed))
		for i, id := range ids {
			sign := 1
			if i < len(signs) && signs[i] {
				sign = -1
			}
			s.AddItem(uint64(id)%(256*256), sign)
		}
		d, err := Decode(p, uint64(seed), s.EncodeTo(nil))
		if err != nil {
			return false
		}
		for i := range s.cells {
			if s.cells[i] != d.cells[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSampleSoundness(t *testing.T) {
	// Whatever Sample returns on a nonzero multiset-of-±1 vector must be
	// an id that was inserted with nonzero net count and the correct sign.
	p := Params{N: 512, Levels: 12, Buckets: 6, Reps: 2}
	f := func(ids []uint16, seed uint16) bool {
		s := New(p, uint64(seed)+1)
		net := map[uint64]int{}
		for _, id := range ids {
			slot := uint64(id) % (512 * 512)
			s.AddItem(slot, 1)
			net[slot]++
		}
		id, sign, st := s.Sample()
		if st != Sampled {
			return true // Empty or Failed: soundness not at issue
		}
		return net[id] > 0 && sign == 1 || (net[id] < 0 && sign == -1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
