package slo

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"nezha/internal/packet"
)

func testKey(i int) (packet.SessionKey, uint64) {
	k := packet.SessionKey{
		VNIC: uint32(i % 7),
		VPC:  uint32(1 + i%3),
		Tuple: packet.FiveTuple{
			SrcIP: packet.IPv4(0x0a000000 + uint32(i)), SrcPort: 1000,
			DstIP: packet.IPv4(0x0a800000 + uint32(i)), DstPort: 80,
			Proto: packet.ProtoTCP,
		},
	}
	n, _ := k.Tuple.Normalize()
	k.Tuple = n
	return k, k.Hash()
}

// Top-K recall >= 0.9 against exact counts on a Zipf-skewed trace,
// with flows interleaved via a deterministic LCG shuffle so slot
// contention is realistic.
func TestSketchTopKRecall(t *testing.T) {
	const flows = 200
	const topK = 10

	keys := make([]packet.SessionKey, flows)
	hashes := make([]uint64, flows)
	counts := make([]int, flows)
	var deck []int
	for i := 0; i < flows; i++ {
		keys[i], hashes[i] = testKey(i)
		counts[i] = 20000 / (i + 1) // Zipf s=1
		if counts[i] < 5 {
			counts[i] = 5
		}
		for j := 0; j < counts[i]; j++ {
			deck = append(deck, i)
		}
	}
	// Fisher-Yates with a fixed-seed LCG: deterministic, skewed access
	// pattern destroyed.
	rng := uint64(0x1badf00d)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}
	for i := len(deck) - 1; i > 0; i-- {
		j := next(i + 1)
		deck[i], deck[j] = deck[j], deck[i]
	}

	var s Sketch
	for _, f := range deck {
		s.Observe(0, hashes[f], keys[f], 100)
	}

	top := s.Top(topK)
	if len(top) != topK {
		t.Fatalf("Top returned %d entries, want %d", len(top), topK)
	}
	// Exact top-K = flows 0..topK-1 by construction (counts strictly
	// ordered until the floor).
	want := make(map[string]bool, topK)
	for i := 0; i < topK; i++ {
		want[keys[i].Tuple.String()] = true
	}
	hits := 0
	for _, hf := range top {
		if want[hf.Flow] {
			hits++
		}
	}
	if recall := float64(hits) / float64(topK); recall < 0.9 {
		t.Fatalf("top-%d recall = %.2f, want >= 0.9 (hits=%d, top=%v)", topK, recall, hits, top)
	}
}

// Count-min estimates never underestimate (no decay configured).
func TestSketchNoUnderestimate(t *testing.T) {
	var s Sketch
	k0, h0 := testKey(0)
	k1, h1 := testKey(1)
	for i := 0; i < 100; i++ {
		s.Observe(0, h0, k0, 1)
	}
	for i := 0; i < 7; i++ {
		s.Observe(0, h1, k1, 1)
	}
	if est := estimate(&s, h0); est < 100 {
		t.Fatalf("estimate(h0) = %d, want >= 100", est)
	}
	if est := estimate(&s, h1); est < 7 {
		t.Fatalf("estimate(h1) = %d, want >= 7", est)
	}
}

// Decay halves counters each period, so an old elephant fades behind
// current traffic.
func TestSketchDecay(t *testing.T) {
	var s Sketch
	s.SetDecay(1000)
	kOld, hOld := testKey(10)
	kNew, hNew := testKey(11)
	for i := 0; i < 1000; i++ {
		s.Observe(0, hOld, kOld, 1)
	}
	// Advance through many decay periods while only the new flow
	// sends a little each period.
	now := int64(0)
	for p := 0; p < 12; p++ {
		now += 1000
		for i := 0; i < 40; i++ {
			s.Observe(now, hNew, kNew, 1)
		}
	}
	if s.decays == 0 {
		t.Fatal("expected decay to have run")
	}
	top := s.Top(2)
	if len(top) == 0 || top[0].Flow != kNew.Tuple.String() {
		t.Fatalf("expected current flow on top after decay, got %v", top)
	}
}

// referenceTop is Sketch.Top written straight: render every occupied
// slot, sort them all by (packets desc, vnic, vpc, flow asc), cut to k.
func referenceTop(s *Sketch, k int) []HotFlow {
	if k <= 0 {
		return nil
	}
	out := make([]HotFlow, 0, k)
	for i := range s.slots {
		sl := &s.slots[i]
		if sl.count == 0 {
			continue
		}
		out = append(out, HotFlow{
			Flow: sl.key.Tuple.String(), VNIC: sl.key.VNIC, VPC: sl.key.VPC,
			Packets: sl.count, Bytes: sl.bytes,
		})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Packets != out[b].Packets {
			return out[a].Packets > out[b].Packets
		}
		if out[a].VNIC != out[b].VNIC {
			return out[a].VNIC < out[b].VNIC
		}
		if out[a].VPC != out[b].VPC {
			return out[a].VPC < out[b].VPC
		}
		return out[a].Flow < out[b].Flow
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// TestTopMatchesReference compares Top with the reference on random
// candidate tables whose (count, vnic, vpc) tie heavily, for k <= 0
// (nil), 1, 10 and past the occupied slots, and requires an exactly
// sized result.
func TestTopMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		var s Sketch
		density, maxCount := rng.Float64(), 1+rng.Intn(4)
		occupied := 0
		for i := range s.slots {
			if rng.Float64() >= density {
				continue
			}
			s.slots[i] = flowSlot{
				hash: rng.Uint64(),
				key: packet.SessionKey{VNIC: uint32(rng.Intn(3)), VPC: uint32(rng.Intn(2)), Tuple: packet.FiveTuple{
					SrcIP: packet.IPv4(0x0a000000 + uint32(i)), SrcPort: uint16(rng.Intn(3)),
					DstIP: packet.IPv4(0x0a800000 + rng.Uint32()%4), DstPort: 443, Proto: packet.ProtoTCP,
				}},
				count: uint64(1 + rng.Intn(maxCount)),
				bytes: uint64(rng.Intn(1 << 20)),
			}
			occupied++
		}
		for _, k := range []int{-1, 0, 1, 10, occupied, occupied + 5} {
			got, want := s.Top(k), referenceTop(&s, k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (%d slots) k=%d:\n got %v\nwant %v", trial, occupied, k, got, want)
			}
			if cap(got) != len(got) {
				t.Fatalf("trial %d k=%d: cap %d, len %d", trial, k, cap(got), len(got))
			}
		}
	}
}

// estimate returns the count-min frequency estimate for hash (an
// overestimate, never an underestimate, modulo decay).
func estimate(s *Sketch, hash uint64) uint64 {
	est := ^uint64(0)
	for i := 0; i < sketchRows; i++ {
		c := s.rows[i][(hash*rowMix[i])>>(64-sketchWidthBits)]
		if c < est {
			est = c
		}
	}
	return est
}
