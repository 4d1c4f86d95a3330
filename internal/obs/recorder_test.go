package obs

import (
	"strings"
	"testing"

	"nezha/internal/packet"
	"nezha/internal/sim"
)

func TestRecorderRingWrap(t *testing.T) {
	r := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		r.Add(Event{At: sim.Time(i), Kind: "tick"})
	}
	if r.Len() != 4 || r.Total() != 10 {
		t.Fatalf("len=%d total=%d", r.Len(), r.Total())
	}
	ev := r.Events()
	for i, e := range ev {
		if e.At != sim.Time(6+i) {
			t.Fatalf("event %d at %v, want %v (oldest-first after wrap)", i, e.At, sim.Time(6+i))
		}
	}
}

func TestRecorderPartial(t *testing.T) {
	r := NewFlightRecorder(8)
	r.Add(Event{At: 1, Kind: "a"})
	r.Add(Event{At: 2, Kind: "b"})
	ev := r.Events()
	if len(ev) != 2 || ev[0].Kind != "a" || ev[1].Kind != "b" {
		t.Fatalf("events = %v", ev)
	}
}

func TestWriteDump(t *testing.T) {
	o := New(Options{Seed: 1, SampleRate: 1, MaxHops: 16, RingSize: 16})
	o.Spans.Begin("offload", 5, 2, sim.Second)
	o.Spans.End("offload", 5, 2, 2*sim.Second, "commit")
	o.Event(sim.Second, "txn-prepare", packet.MakeIP(10, 0, 0, 1), 5, "targets=%d", 3)
	// Typed notes, as the datapath records them: the dump renders them,
	// drop codes through the installed names.
	defer SetDropNames(dropNames)
	SetDropNames([]string{3: "no-route"})
	o.Tracer.Hop(77, Hop{At: sim.Second, Node: packet.MakeIP(10, 0, 0, 1), Stage: StageGWPick, Flags: HasTo, To: packet.MakeIP(10, 0, 0, 2)})
	o.Tracer.Hop(77, Hop{At: sim.Second, Node: packet.MakeIP(10, 0, 0, 2), Stage: StageDrop, Drop: 3})
	var b strings.Builder
	if err := o.WriteDump(&b, "meta seed=42 violation=no-blackhole"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# nezha flight-recorder dump",
		"meta seed=42 violation=no-blackhole",
		"span kind=offload",
		"outcome=commit",
		"txn-prepare",
		"targets=3",
		"flight id=77 hops=2",
		"gw-pick      node=10.0.0.1 to=10.0.0.2",
		"drop:no-route node=10.0.0.2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
}

func TestNilObsSafe(t *testing.T) {
	var o *Obs
	o.Event(1, "x", 0, 0, "ignored") // must not panic
	var tr *FlightTracer
	if tr.Sampled(&packet.Packet{ID: 1}) {
		t.Fatal("nil tracer sampled")
	}
	var fr *FlightRecorder
	fr.Add(Event{}) // must not panic
	var ft *FlowTop
	ft.Observe(packet.FiveTuple{}, 0) // must not panic
	var sl *SpanLog
	sl.Begin("x", 0, 0, 0)
	sl.End("x", 0, 0, 0, "y")
}
