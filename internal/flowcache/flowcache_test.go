package flowcache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nezha/internal/packet"
	"nezha/internal/state"
	"nezha/internal/tables"
)

// key is session n of vNIC 3, the vNIC most tests create entries under.
func key(n uint16) packet.SessionKey { return keyIn(3, n) }

func keyIn(vnic uint32, n uint16) packet.SessionKey {
	ft := packet.FiveTuple{
		SrcIP: packet.MakeIP(10, 0, 0, 1), DstIP: packet.MakeIP(10, 0, 0, 2),
		SrcPort: n, DstPort: 80, Proto: packet.ProtoTCP,
	}
	k, _ := packet.SessionKeyOf(vnic, 7, ft)
	return k
}

func TestGetOrCreateAndLookup(t *testing.T) {
	tb := New(Config{})
	e, err := tb.GetOrCreate(key(1), 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Key(e).VNIC != 3 || e.LastSeen != 100 {
		t.Fatalf("entry fields: %+v", e)
	}
	if tb.Len() != 1 {
		t.Fatal("len != 1")
	}
	got := tb.Lookup(key(1), 200)
	if got != e {
		t.Fatal("lookup returned different entry")
	}
	if got.LastSeen != 200 {
		t.Fatal("lookup did not refresh LastSeen")
	}
	if tb.Hits != 1 {
		t.Fatalf("hits = %d", tb.Hits)
	}
	if tb.Lookup(key(2), 0) != nil {
		t.Fatal("missing key returned entry")
	}
	if tb.Misses != 1 {
		t.Fatalf("misses = %d", tb.Misses)
	}
}

func TestGetOrCreateIdempotent(t *testing.T) {
	tb := New(Config{})
	e1, _ := tb.GetOrCreate(key(1), 3, 1)
	e2, _ := tb.GetOrCreate(key(1), 3, 2)
	if e1 != e2 {
		t.Fatal("GetOrCreate created duplicate")
	}
	if tb.Len() != 1 {
		t.Fatal("duplicate entry")
	}
}

func TestMemoryAccounting(t *testing.T) {
	tb := New(Config{})
	if tb.MemBytes() != 0 {
		t.Fatal("fresh table has memory")
	}
	e, _ := tb.GetOrCreate(key(1), 3, 0)
	if tb.MemBytes() != EntryOverheadBytes {
		t.Fatalf("overhead-only entry = %d", tb.MemBytes())
	}
	if err := tb.SetPre(e, tables.PreActions{}, 1); err != nil {
		t.Fatal(err)
	}
	if tb.MemBytes() != EntryOverheadBytes+PreActionsBytes {
		t.Fatalf("with pre = %d", tb.MemBytes())
	}
	var s state.State
	s.InitFirst(packet.DirTX, 0)
	if err := tb.SetState(e, s); err != nil {
		t.Fatal(err)
	}
	want := EntryOverheadBytes + PreActionsBytes + state.FixedSizeBytes
	if tb.MemBytes() != want {
		t.Fatalf("full entry = %d, want %d", tb.MemBytes(), want)
	}
	tb.Delete(key(1))
	if tb.MemBytes() != 0 {
		t.Fatalf("after delete = %d", tb.MemBytes())
	}
}

func TestVariableStateSmaller(t *testing.T) {
	fixed := New(Config{})
	variable := New(Config{VariableState: true})
	var s state.State
	s.InitFirst(packet.DirTX, 0)
	for i, tb := range []*Table{fixed, variable} {
		e, _ := tb.GetOrCreate(key(1), 3, 0)
		if err := tb.SetState(e, s); err != nil {
			t.Fatalf("table %d: %v", i, err)
		}
	}
	if variable.MemBytes() >= fixed.MemBytes() {
		t.Fatalf("variable (%d) should be smaller than fixed (%d)",
			variable.MemBytes(), fixed.MemBytes())
	}
}

func TestBudgetRejectsInsert(t *testing.T) {
	tb := New(Config{MaxBytes: EntryOverheadBytes}) // room for exactly one bare entry
	if _, err := tb.GetOrCreate(key(1), 3, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.GetOrCreate(key(2), 3, 0); err != ErrNoMemory {
		t.Fatalf("want ErrNoMemory, got %v", err)
	}
	if tb.Rejects != 1 {
		t.Fatalf("rejects = %d", tb.Rejects)
	}
	// Growth within an entry also respects the budget.
	e := tb.Peek(key(1))
	if err := tb.SetPre(e, tables.PreActions{}, 1); err != ErrNoMemory {
		t.Fatalf("SetPre should hit budget, got %v", err)
	}
	if e.HasPre() {
		t.Fatal("failed SetPre mutated entry")
	}
	if tb.MemBytes() != EntryOverheadBytes {
		t.Fatal("failed mutation leaked memory")
	}
}

func TestBudgetExistingEntryStillAccessible(t *testing.T) {
	tb := New(Config{MaxBytes: EntryOverheadBytes})
	tb.GetOrCreate(key(1), 3, 0)
	if _, err := tb.GetOrCreate(key(1), 3, 5); err != nil {
		t.Fatal("existing entry should be returned even at budget")
	}
}

func TestTouchState(t *testing.T) {
	tb := New(Config{})
	e, _ := tb.GetOrCreate(key(1), 3, 0)
	if err := tb.TouchState(e, packet.DirTX, packet.FlagSYN, 0, 10); err != nil {
		t.Fatal(err)
	}
	if st := tb.State(e); !e.HasState() || st.TCP != state.TCPSynSent {
		t.Fatalf("state not advanced: %+v", *st)
	}
	if tb.MemBytes() != EntryOverheadBytes+state.FixedSizeBytes {
		t.Fatalf("mem = %d", tb.MemBytes())
	}
}

func TestInvalidateVNIC(t *testing.T) {
	tb := New(Config{})
	tb.GetOrCreate(key(1), 3, 0)
	tb.GetOrCreate(key(2), 3, 0)
	tb.GetOrCreate(keyIn(4, 3), 4, 0)
	if n := tb.InvalidateVNIC(3); n != 2 {
		t.Fatalf("invalidated %d, want 2", n)
	}
	if tb.Len() != 1 {
		t.Fatalf("len = %d", tb.Len())
	}
	if tb.Peek(keyIn(4, 3)) == nil {
		t.Fatal("wrong vnic invalidated")
	}
}

func TestSweepAgesSynFasterThanEstablished(t *testing.T) {
	tb := New(Config{})
	eSyn, _ := tb.GetOrCreate(key(1), 3, 0)
	tb.TouchState(eSyn, packet.DirTX, packet.FlagSYN, 0, 0)
	eEst, _ := tb.GetOrCreate(key(2), 3, 0)
	tb.TouchState(eEst, packet.DirTX, packet.FlagSYN, 0, 0)
	tb.TouchState(eEst, packet.DirRX, packet.FlagSYN|packet.FlagACK, 0, 0)
	tb.TouchState(eEst, packet.DirTX, packet.FlagACK, 0, 0)

	// Just past the SYN aging: only the establishing session goes.
	n := tb.Sweep(state.AgingSyn + 1)
	if n != 1 {
		t.Fatalf("swept %d, want 1", n)
	}
	if tb.Peek(key(1)) != nil {
		t.Fatal("SYN entry survived")
	}
	if tb.Peek(key(2)) == nil {
		t.Fatal("established entry evicted early")
	}
	// Past the established aging: everything goes.
	n = tb.Sweep(state.AgingEstablished + 1)
	if n != 1 {
		t.Fatalf("second sweep %d, want 1", n)
	}
	if tb.Evictions != 2 {
		t.Fatalf("evictions = %d", tb.Evictions)
	}
}

func TestSweepStatelessEntries(t *testing.T) {
	tb := New(Config{})
	e, _ := tb.GetOrCreate(key(1), 3, 0)
	tb.SetPre(e, tables.PreActions{}, 1)
	if n := tb.Sweep(idleAging - 1); n != 0 {
		t.Fatal("stateless entry evicted too early")
	}
	if n := tb.Sweep(idleAging + 1); n != 1 {
		t.Fatal("stateless entry not evicted after idle aging")
	}
}

func TestSweepRefundsMemory(t *testing.T) {
	tb := New(Config{})
	for i := uint16(0); i < 10; i++ {
		e, _ := tb.GetOrCreate(key(i), 3, 0)
		tb.TouchState(e, packet.DirTX, packet.FlagSYN, 0, 0)
	}
	tb.Sweep(state.AgingSyn + 1)
	if tb.MemBytes() != 0 {
		t.Fatalf("memory leaked after sweep: %d", tb.MemBytes())
	}
}

func TestClear(t *testing.T) {
	tb := New(Config{})
	tb.GetOrCreate(key(1), 3, 0)
	tb.Clear()
	if tb.Len() != 0 || tb.MemBytes() != 0 {
		t.Fatal("clear incomplete")
	}
}

func TestRangeEarlyStop(t *testing.T) {
	tb := New(Config{})
	for i := uint16(0); i < 10; i++ {
		tb.GetOrCreate(key(i), 3, 0)
	}
	n := 0
	tb.Range(func(*Entry) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("range visited %d, want 3", n)
	}
}

func TestSetMaxBytes(t *testing.T) {
	tb := New(Config{})
	tb.GetOrCreate(key(1), 3, 0)
	tb.SetMaxBytes(1) // below current use
	if _, err := tb.GetOrCreate(key(2), 3, 0); err != ErrNoMemory {
		t.Fatal("shrunk budget should reject new entries")
	}
	if tb.Peek(key(1)) == nil {
		t.Fatal("existing entry must survive budget shrink")
	}
}

// applyMemOp is one step of the memory-consistency op stream: op picks
// the key and the operation.
func applyMemOp(tb *Table, op uint16, now int64) {
	k := key(op % 16)
	switch op % 5 {
	case 0, 1:
		e, err := tb.GetOrCreate(k, k.VNIC, now)
		if err == nil && op%2 == 0 {
			tb.TouchState(e, packet.DirTX, packet.FlagSYN, 0, now)
		}
	case 2:
		if e := tb.Peek(k); e != nil {
			tb.SetPre(e, tables.PreActions{}, 1)
		}
	case 3:
		tb.Delete(k)
	case 4:
		tb.Sweep(now)
	}
}

// Property: memory accounting equals the sum over live entries under
// any interleaving of operations.
func TestQuickMemoryConsistency(t *testing.T) {
	f := func(ops []uint16) bool {
		tb := New(Config{})
		now := int64(0)
		for _, op := range ops {
			now++
			applyMemOp(tb, op, now)
		}
		// Recompute from scratch.
		want := 0
		tb.Range(func(e *Entry) bool {
			want += tb.SizeOf(e)
			return true
		})
		return tb.MemBytes() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMemoryModelTotals replays that op stream — under a budget tight
// enough to reject, with a lookup per step and a clock that lets
// sessions age out — and compares every model total with the values
// the pointer-bucket table produced. MemBytes, the budget and the
// counters are the simulated SmartNIC's bytes and events; how Go stores
// an entry must not reach them.
func TestMemoryModelTotals(t *testing.T) {
	for _, tc := range []struct {
		variable bool
		want     [6]uint64 // Len, MemBytes, Hits, Misses, Evictions, Rejects
	}{
		{false, [6]uint64{10, 768, 21359, 28641, 2738, 7402}},
		{true, [6]uint64{9, 726, 21973, 28027, 3756, 4168}},
	} {
		tb := New(Config{MaxBytes: 6 * (EntryOverheadBytes + PreActionsBytes), VariableState: tc.variable})
		rng := rand.New(rand.NewSource(7))
		now := int64(0)
		for i := 0; i < 50000; i++ {
			now += rng.Int63n(state.AgingSyn / 8)
			op := uint16(rng.Intn(1 << 16))
			tb.Lookup(key(op%16), now)
			applyMemOp(tb, op, now)
		}
		got := [6]uint64{uint64(tb.Len()), uint64(tb.MemBytes()), tb.Hits, tb.Misses, tb.Evictions, tb.Rejects}
		if got != tc.want {
			t.Errorf("variable=%v: Len, MemBytes, Hits, Misses, Evictions, Rejects = %v, recorded %v", tc.variable, got, tc.want)
		}
	}
}

// filled returns a table of n flows with pre-actions and state, and
// their keys and hashes.
func filled(b *testing.B, n int) (*Table, []packet.SessionKey, []uint64) {
	tb := New(Config{})
	ks, hs := make([]packet.SessionKey, n), make([]uint64, n)
	var st state.State
	st.InitFirst(packet.DirTX, 0)
	for i := range ks {
		ks[i] = keyFor(i)
		hs[i] = ks[i].Hash()
		e, err := tb.GetOrCreateH(ks[i], hs[i], ks[i].VNIC, 0)
		if err != nil || tb.SetPre(e, tables.PreActions{}, 1) != nil || tb.SetState(e, st) != nil {
			b.Fatal("fill failed")
		}
	}
	return tb, ks, hs
}

func BenchmarkLookupHit(b *testing.B) {
	tb := New(Config{})
	tb.GetOrCreate(key(1), 3, 0)
	k := key(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb.Lookup(k, int64(i))
	}
}

// BenchmarkLookupHit50k cycles through a table far larger than the
// cache: every lookup pays its bucket and entry misses.
func BenchmarkLookupHit50k(b *testing.B) {
	tb, ks, hs := filled(b, 50000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(ks)
		if tb.LookupH(ks[j], hs[j], int64(i)) == nil {
			b.Fatal("miss")
		}
	}
}

func BenchmarkLookupMiss(b *testing.B) {
	tb, ks, _ := filled(b, 50000)
	absent, hs := make([]packet.SessionKey, 4096), make([]uint64, 4096)
	for i := range absent {
		absent[i] = keyFor(len(ks) + i)
		hs[i] = absent[i].Hash()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(absent)
		if tb.LookupH(absent[j], hs[j], int64(i)) != nil {
			b.Fatal("hit")
		}
	}
}

func BenchmarkGetOrCreate(b *testing.B) {
	tb := New(Config{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb.GetOrCreate(key(uint16(i)), 3, int64(i))
		if i%65536 == 65535 {
			tb.Clear()
		}
	}
}

// BenchmarkSweep times the scan that finds nothing expired; ns/op is
// per entry visited.
func BenchmarkSweep(b *testing.B) {
	tb, ks, _ := filled(b, 50000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(ks) {
		if tb.Sweep(0) != 0 {
			b.Fatal("sweep evicted a live entry")
		}
	}
}
