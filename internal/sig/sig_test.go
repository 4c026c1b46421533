package sig

import (
	"math"
	"testing"
	"testing/quick"
)

// laneSig is a signature in the storage form the sketch keeps: an exact
// total and 64 int32 bit lanes that add modulo 2^32.
type laneSig struct {
	total int64
	bits  [KeyBits]int32
}

// update applies a net frequency change of delta for key, as the sketch's
// update kernel does.
func (s *laneSig) update(key uint64, delta int64) {
	s.total += delta
	for j := 0; j < KeyBits; j++ {
		if key&(1<<uint(j)) != 0 {
			s.bits[j] += int32(delta)
		}
	}
}

// add merges src into s, lane-wise modulo 2^32.
func (s *laneSig) add(src *laneSig) {
	s.total += src.total
	for j := range s.bits {
		s.bits[j] += src.bits[j]
	}
}

func (s *laneSig) decode() (uint64, int64, State) { return DecodeLanes(s.total, &s.bits) }

func TestWidth(t *testing.T) {
	if w := (Layout{}).Width(); w != 65 {
		t.Fatalf("plain layout width = %d, want 65", w)
	}
	if w := (Layout{Fingerprint: true}).Width(); w != 66 {
		t.Fatalf("fingerprint layout width = %d, want 66", w)
	}
}

func TestEmptyDecode(t *testing.T) {
	var s laneSig
	key, count, state := s.decode()
	if state != Empty || key != 0 || count != 0 {
		t.Fatalf("zero signature: got (%v,%v,%v), want Empty", key, count, state)
	}
}

func TestSingletonRoundTrip(t *testing.T) {
	err := quick.Check(func(key uint64, countRaw uint16) bool {
		count := int64(countRaw) + 1
		var s laneSig
		for i := int64(0); i < count; i++ {
			s.update(key, 1)
		}
		gotKey, gotCount, state := s.decode()
		return state == Singleton && gotKey == key && gotCount == count
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeleteRestoresSingleton(t *testing.T) {
	// Insert two keys, delete one: the bucket must decode as a singleton
	// of the survivor (delete-resilience, the paper's core property).
	err := quick.Check(func(a, b uint64) bool {
		if a == b {
			return true
		}
		var s laneSig
		s.update(a, 1)
		s.update(b, 1)
		s.update(a, -1)
		key, count, state := s.decode()
		return state == Singleton && key == b && count == 1
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeleteToEmpty(t *testing.T) {
	err := quick.Check(func(keys []uint64) bool {
		var s laneSig
		for _, k := range keys {
			s.update(k, 1)
		}
		for _, k := range keys {
			s.update(k, -1)
		}
		_, _, state := s.decode()
		return state == Empty && s == laneSig{}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollisionDetected(t *testing.T) {
	err := quick.Check(func(a, b uint64) bool {
		if a == b {
			return true
		}
		var s laneSig
		s.update(a, 1)
		s.update(b, 1)
		_, _, state := s.decode()
		// Two distinct keys with count 1 each always differ in a bit,
		// so that bit counter is 1 != total 2.
		return state == Collision
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestNetNegativeTreatedAsCollision(t *testing.T) {
	var s laneSig
	s.update(42, -1)
	if _, _, state := s.decode(); state != Collision {
		t.Fatalf("net-negative bucket decoded as %v, want Collision", state)
	}
}

func TestZeroTotalNonZeroBitsIsCollision(t *testing.T) {
	var s laneSig
	// key 3 inserted once, key 1 deleted once: total 0, residual bits.
	s.update(3, 1)
	s.update(1, -1)
	if _, _, state := s.decode(); state != Collision {
		t.Fatalf("zero-total residual bucket decoded as %v, want Collision", state)
	}
}

// TestAddMerge checks that lane-wise addition of two signatures is the
// signature of the concatenated streams: one key merged with itself decodes
// with the summed count, two keys collide.
func TestAddMerge(t *testing.T) {
	err := quick.Check(func(a, b uint64, na, nb uint8) bool {
		var s1, s2, both laneSig
		s1.update(a, int64(na)+1)
		s2.update(b, int64(nb)+1)
		both.update(a, int64(na)+1)
		both.update(b, int64(nb)+1)
		s1.add(&s2)
		if s1 != both {
			return false
		}
		key, count, state := s1.decode()
		if a == b {
			return state == Singleton && key == a && count == int64(na)+int64(nb)+2
		}
		return state == Collision
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// TestSaturatedDecodesAgainBelowLimit drives one key's count across 2^31 by
// merge-doubling, where its lanes wrap: the bucket reports Saturated from
// 2^31 on, and once a delete brings the total back below it the wrapped
// lanes are exact again and decode the key and its count.
func TestSaturatedDecodesAgainBelowLimit(t *testing.T) {
	const key = 0xfedcba9876543210
	var s laneSig
	s.update(key, 1)
	for s.total < math.MaxInt32 {
		c := s
		s.add(&c)
		if s.total > math.MaxInt32 {
			break
		}
		if k, n, state := s.decode(); state != Singleton || k != key || n != s.total {
			t.Fatalf("total %d: decode = (%#x,%d,%v), want the key", s.total, k, n, state)
		}
	}
	if s.total != 1<<31 {
		t.Fatalf("doubling reached total %d, want 2^31", s.total)
	}
	if _, _, state := s.decode(); state != Saturated {
		t.Fatalf("total 2^31: decode state %v, want Saturated", state)
	}
	s.update(key, -1)
	k, n, state := s.decode()
	if state != Singleton || k != key || n != math.MaxInt32 {
		t.Fatalf("after one delete: decode = (%#x,%d,%v), want (%#x,%d,Singleton)", k, n, state, uint64(key), int64(math.MaxInt32))
	}
}

func BenchmarkDecode(b *testing.B) {
	var s laneSig
	s.update(0xdeadbeefcafef00d, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.decode()
	}
}
