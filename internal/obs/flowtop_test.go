package obs

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"nezha/internal/packet"
)

// referenceFlowTop is FlowTop.Top written straight: render every flow,
// sort them all by (packets desc, flow asc), cut to k.
func referenceFlowTop(f *FlowTop, k int) []FlowStat {
	f.mu.Lock()
	out := make([]FlowStat, 0, len(f.counts))
	for ft, c := range f.counts {
		out = append(out, FlowStat{Flow: ft.String(), Packets: c.packets, Bytes: c.bytes})
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Packets != out[j].Packets {
			return out[i].Packets > out[j].Packets
		}
		return out[i].Flow < out[j].Flow
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// TestFlowTopMatchesReference compares Top with the reference on
// random tables whose counts tie heavily, for k <= 0 (every flow), 1,
// 10 and past the table size, and requires an exactly sized result.
func TestFlowTopMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		f := NewFlowTop()
		n := rng.Intn(1200)
		maxCount := 1 + rng.Intn(4)
		for i := 0; i < n; i++ {
			ft := packet.FiveTuple{
				SrcIP: packet.IPv4(0x0a000000 + rng.Uint32()%64), SrcPort: uint16(rng.Intn(40)),
				DstIP: packet.IPv4(0x0a800000 + rng.Uint32()%4), DstPort: 80, Proto: packet.ProtoTCP,
			}
			for c := 1 + rng.Intn(maxCount); c > 0; c-- {
				f.Observe(ft, 64+rng.Intn(1400))
			}
		}
		size := len(f.counts)
		for _, k := range []int{-1, 0, 1, 10, size, size + 5} {
			got, want := f.Top(k), referenceFlowTop(f, k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (%d flows) k=%d:\n got %v\nwant %v", trial, size, k, got, want)
			}
			if cap(got) != len(got) {
				t.Fatalf("trial %d k=%d: cap %d, len %d", trial, k, cap(got), len(got))
			}
		}
	}
}

// TestFlowTopTiedAllocs bounds Top(10) over 1 024 flows tied at one
// count: ranking them renders into reused scratch, so the call
// allocates the result and its ten strings, nothing per tied flow.
func TestFlowTopTiedAllocs(t *testing.T) {
	f := NewFlowTop()
	for i := 0; i < maxFlows; i++ {
		f.Observe(packet.FiveTuple{
			SrcIP: packet.IPv4(0x0a000000 + uint32(i)), SrcPort: uint16(1000 + i),
			DstIP: packet.MakeIP(10, 0, 0, 1), DstPort: 80, Proto: packet.ProtoTCP,
		}, 64)
	}
	if got := len(f.Top(10)); got != 10 {
		t.Fatalf("Top(10) returned %d flows", got)
	}
	if allocs := testing.AllocsPerRun(20, func() { f.Top(10) }); allocs > 11 {
		t.Errorf("Top(10) over %d tied flows: %v allocations, want at most 11 (the result and its ten strings)", maxFlows, allocs)
	}
}
