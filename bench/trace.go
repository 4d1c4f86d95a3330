package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"nezha/internal/sim"
)

// Span kinds: the seams the harness owns. Every span is recorded from
// the benchmark's own files, around a call into a layer; nothing inside
// internal/ is instrumented.
const (
	spanEvent    = iota // sim.event: one per fired event, stamped from Loop.Observe
	spanUnderlay        // vswitch.underlay: fabric handler wrappers
	spanFromVM          // vswitch.from_vm: the harness's own FromVMBurst calls
	spanDeliver         // workload.deliver: SetDelivery wrapper around VM.OnDeliver or the sink
	spanCampaign        // chaos.campaign: around RunCampaign
	spanBuild           // cluster.build: world construction
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"sim.event", "vswitch.underlay", "vswitch.from_vm", "workload.deliver", "chaos.campaign", "cluster.build",
}

// maxRawSpans bounds the spans kept verbatim for the trace file; the
// aggregate table covers every span regardless.
const maxRawSpans = 200_000

type rawSpan struct {
	ID     uint64 `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent uint64 `json:"parent"` // 0 = root
	Req    uint64 `json:"req"`    // packet id for packet spans, event sequence otherwise
}

type spanAgg struct {
	Count uint64  `json:"count"`
	Units uint64  `json:"units"` // packets (or events) the spans covered
	Total int64   `json:"total_ns"`
	Self  int64   `json:"self_ns"`
	durs  []int64 // kept only for kinds with few spans (campaigns)
}

type openSpan struct {
	id    uint64
	kind  int
	start int64
	child int64 // time covered by direct children
	req   uint64
	units uint64
}

// tracer records spans online: a stack of open spans gives each span
// its parent and the time its children cover, so self time = duration −
// covered child time needs no second pass.
//
// Loop.Observe fires after an event has run, so a sim.event span is
// closed there and the next one opened at the same instant; spans
// begun while an event runs are its children.
type tracer struct {
	origin time.Time
	nextID uint64
	stack  []openSpan
	agg    [numSpanKinds]spanAgg
	raw    []rawSpan

	active   bool // inside the measured region
	inEvent  bool // a loop is observed: top-level spans are children of its events
	event    openSpan
	eventSeq uint64

	// pending samples Loop.Pending() every 1024 events, for the
	// scheduler probes' queue depth.
	pendingSum, pendingN uint64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), raw: make([]rawSpan, 0, maxRawSpans)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) newID() uint64 { t.nextID++; return t.nextID }

// begin opens a span; units is how many packets it covers. Outside
// the measured region (see resume) the wrappers record nothing. The
// methods the workloads call are no-ops on a nil tracer, which is what
// an untraced rep carries.
// begin and end stay small enough to inline, so an untraced rep pays a
// nil check per call and nothing else.
func (t *tracer) begin(kind int, req, units uint64) {
	if t != nil && t.active {
		t.push(kind, req, units)
	}
}

func (t *tracer) end() {
	if t != nil && t.active {
		t.pop()
	}
}

func (t *tracer) push(kind int, req, units uint64) {
	t.stack = append(t.stack, openSpan{id: t.newID(), kind: kind, start: t.now(), req: req, units: units})
}

func (t *tracer) pop() {
	n := len(t.stack) - 1
	s := t.stack[n]
	t.stack = t.stack[:n]
	end := t.now()
	dur := end - s.start
	var parent uint64
	switch {
	case n > 0:
		t.stack[n-1].child += dur
		parent = t.stack[n-1].id
	case t.inEvent:
		t.event.child += dur
		parent = t.event.id
	}
	t.record(s, end, parent)
}

func (t *tracer) record(s openSpan, end int64, parent uint64) {
	a := &t.agg[s.kind]
	a.Count++
	a.Units += s.units
	a.Total += end - s.start
	a.Self += end - s.start - s.child
	if s.kind == spanCampaign {
		a.durs = append(a.durs, end-s.start)
	}
	if len(t.raw) < maxRawSpans {
		t.raw = append(t.raw, rawSpan{ID: s.id, Name: spanNames[s.kind], Start: s.start, End: end, Parent: parent, Req: s.req})
	}
}

// observe attaches the tracer to a loop: inside the measured region
// every fired event becomes a sim.event span whose request id is the
// event sequence.
func (t *tracer) observe(loop *sim.Loop) {
	t.inEvent = true
	loop.Observe(func(sim.Time) {
		if !t.active {
			return
		}
		t.record(t.event, t.now(), 0)
		t.eventSeq++
		if t.eventSeq&1023 == 0 {
			t.pendingSum += uint64(loop.Pending())
			t.pendingN++
		}
		t.openEvent()
	})
}

func (t *tracer) openEvent() {
	t.event = openSpan{id: t.newID(), kind: spanEvent, start: t.now(), req: t.eventSeq, units: 1}
}

// resume and pause bracket the measured region: set-up, drain and the
// harness's own work between Loop.Run calls are not traced.
func (t *tracer) resume() {
	if t == nil {
		return
	}
	t.active = true
	if t.inEvent {
		t.openEvent()
	}
}

func (t *tracer) pause() {
	if t != nil {
		t.active = false
	}
}

// build records fn, the world's construction, as a cluster.build span:
// the one span outside the measured region.
func (t *tracer) build(fn func()) {
	if t == nil {
		fn()
		return
	}
	t.active = true
	t.begin(spanBuild, 0, 0)
	fn()
	t.end()
	t.active = false
}

func (t *tracer) meanPending() int {
	if t.pendingN == 0 {
		return 0
	}
	return int(t.pendingSum / t.pendingN)
}

func (t *tracer) spans() uint64 {
	var n uint64
	for i := range t.agg {
		n += t.agg[i].Count
	}
	return n
}

// perUnit is a kind's self time per covered packet (or event).
func (t *tracer) perUnit(kind int) (float64, bool) {
	a := &t.agg[kind]
	if a.Units == 0 {
		return 0, false
	}
	return float64(a.Self) / float64(a.Units), true
}

// write dumps the aggregate self-time table and the first raw spans.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	table := make(map[string]spanAgg, numSpanKinds)
	for i := range t.agg {
		if t.agg[i].Count > 0 {
			table[spanNames[i]] = t.agg[i]
		}
	}
	doc := struct {
		Workload  string             `json:"workload"`
		Spans     uint64             `json:"spans"`
		RawKept   int                `json:"raw_kept"`
		SelfTable map[string]spanAgg `json:"self_time"`
		Raw       []rawSpan          `json:"raw"`
	}{workload, t.spans(), len(t.raw), table, t.raw}
	if err := json.NewEncoder(w).Encode(&doc); err != nil {
		return "", fmt.Errorf("trace: write %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		return "", fmt.Errorf("trace: write %s: %w", path, err)
	}
	return path, f.Close()
}
