package tuple

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// referenceHash is the original hash/fnv-based implementation of
// Value.Hash. The inlined rewrite must stay bit-identical to it.
func referenceHash(v Value, seed uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], seed)
	h.Write(buf[:])
	buf[0] = byte(v.kind)
	h.Write(buf[:1])
	switch v.kind {
	case KindBool, KindInt:
		binary.LittleEndian.PutUint64(buf[:], uint64(v.i))
		h.Write(buf[:8])
	case KindFloat:
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.f))
		h.Write(buf[:8])
	case KindString:
		h.Write([]byte(v.s))
	case KindBytes:
		h.Write(v.b)
	}
	return h.Sum64()
}

func TestHashMatchesReference(t *testing.T) {
	vals := []Value{
		Null(),
		Bool(false), Bool(true),
		Int(0), Int(-1), Int(42), Int(math.MinInt64), Int(math.MaxInt64),
		Float(0), Float(-1.5), Float(math.NaN()), Float(math.Inf(1)),
		String_(""), String_("a"), String_("hello\x00world"),
		Bytes(nil), Bytes([]byte{0x00}), Bytes([]byte{0xDE, 0xAD, 0xBE, 0xEF}),
	}
	seeds := []uint64{0, 1, 1469598103934665603, ^uint64(0)}
	for _, v := range vals {
		for _, seed := range seeds {
			if got, want := v.Hash(seed), referenceHash(v, seed); got != want {
				t.Fatalf("Hash(%v, %d) = %#x, reference %#x", v, seed, got, want)
			}
		}
	}
	// The exported per-kind helpers must agree with Value.Hash.
	if HashNull(7) != Null().Hash(7) {
		t.Fatal("HashNull mismatch")
	}
	if HashBool(7, true) != Bool(true).Hash(7) {
		t.Fatal("HashBool mismatch")
	}
	if HashInt(7, -9) != Int(-9).Hash(7) {
		t.Fatal("HashInt mismatch")
	}
	if HashFloat(7, 2.5) != Float(2.5).Hash(7) {
		t.Fatal("HashFloat mismatch")
	}
	if HashString(7, "xyz") != String_("xyz").Hash(7) {
		t.Fatal("HashString mismatch")
	}
	if HashBytes(7, []byte("xyz")) != Bytes([]byte("xyz")).Hash(7) {
		t.Fatal("HashBytes mismatch")
	}
	if n := testing.AllocsPerRun(100, func() {
		_ = String_("steady-state hashing must not allocate").Hash(3)
	}); n != 0 {
		t.Fatalf("Value.Hash allocates %.1f times per call", n)
	}
}
