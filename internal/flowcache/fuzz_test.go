package flowcache

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// byteSource is an opSource that reads its choices from a fuzz input;
// an exhausted input reads as zeros.
type byteSource struct{ b []byte }

func (s *byteSource) take(n int) []byte {
	var buf [8]byte
	c := copy(buf[:n], s.b)
	s.b = s.b[c:]
	return buf[:]
}

func (s *byteSource) Intn(n int) int { return int(s.take(1)[0]) % n }

func (s *byteSource) Int63n(n int64) int64 {
	return int64(binary.LittleEndian.Uint32(s.take(4)) % uint32(n))
}

// FuzzTableOps steps a session table and its map model (storeModel)
// through the op stream a fuzz input spells — inserts, lookups,
// pre-actions and state writes, deletes, InvalidateVNIC, Sweep and
// Clear, over keys that share each 5-tuple among six (vNIC, VPC)
// scopes — and requires the two to agree after every op and the table
// to empty without a leak.
func FuzzTableOps(f *testing.F) {
	// An op reads at most a dozen bytes, so a 512-byte input spells
	// about a hundred; past maxFuzzOps the fuzzer gains length, not
	// coverage, and minimizing pays for every op.
	const maxFuzzOps = 256
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{16, 128, 512} {
		ops := make([]byte, n)
		rng.Read(ops)
		f.Add(false, ops)
		f.Add(true, ops)
	}
	f.Fuzz(func(t *testing.T, variable bool, ops []byte) {
		m := newStoreModel(t, variable)
		src := &byteSource{b: ops}
		for op := 0; len(src.b) > 0 && op < maxFuzzOps; op++ {
			m.check(op, m.step(op, src))
		}
		m.drain()
	})
}
