package obs

import (
	"bufio"
	"fmt"
	"sync"

	"nezha/internal/packet"
	"nezha/internal/sim"
)

// Event is one structured flight-recorder entry: a control-plane or
// lifecycle occurrence worth having in hand when an invariant trips.
type Event struct {
	At   sim.Time    `json:"at"`
	Kind string      `json:"kind"` // e.g. txn-prepare, txn-commit, rpc-retry, node-down
	Node packet.IPv4 `json:"node,omitempty"`
	VNIC uint32      `json:"vnic,omitempty"`
	Msg  string      `json:"msg,omitempty"`
}

func (e Event) String() string {
	s := fmt.Sprintf("[%v] %-16s", e.At, e.Kind)
	if e.Node != 0 {
		s += fmt.Sprintf(" node=%s", e.Node)
	}
	if e.VNIC != 0 {
		s += fmt.Sprintf(" vnic=%d", e.VNIC)
	}
	if e.Msg != "" {
		s += " " + e.Msg
	}
	return s
}

// FlightRecorder is a bounded ring of recent events, allocated when it
// is built. The chaos engine dumps it (alongside spans and sampled
// flights) the moment an invariant violation is recorded; a recorder
// with no ring, which is what every bundle that writes no dump holds,
// drops every event.
type FlightRecorder struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	full  bool
	total uint64
}

// NewFlightRecorder builds a ring holding the last n events; n <= 0
// builds one with no ring.
func NewFlightRecorder(n int) *FlightRecorder {
	return &FlightRecorder{buf: make([]Event, max(n, 0))}
}

// retains reports whether the recorder keeps events. Safe on a nil
// recorder.
func (r *FlightRecorder) retains() bool { return r != nil && len(r.buf) > 0 }

// Add appends an event, evicting the oldest once the ring is full.
func (r *FlightRecorder) Add(e Event) {
	if !r.retains() {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.total++
	r.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (r *FlightRecorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]Event(nil), r.buf[:r.next]...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Len returns how many events are currently retained.
func (r *FlightRecorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// Total returns how many events were ever recorded.
func (r *FlightRecorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// writeEvents dumps the retained events, oldest first. w's first
// write error sticks; the caller's Flush returns it.
func (r *FlightRecorder) writeEvents(w *bufio.Writer) {
	events := r.Events()
	fmt.Fprintf(w, "== events (last %d of %d) ==\n", len(events), r.Total())
	for _, e := range events {
		fmt.Fprintf(w, "%s\n", e)
	}
}
