// Package opsapi is the embedded HTTP ops service any sim process can
// host off the event loop (nezha-sim -listen, nezha-chaos -listen):
// Prometheus exposition, JSON snapshots, ring-buffer history queries,
// an SSE stream of per-virtual-second snapshots, the latest
// pprof-encoded attribution profile, the policy decision log, the
// chaos campaign report, and controller health.
//
// The service is observer-effect-free by construction: handlers read
// only from an obs.History — immutable snapshots and copied side
// stores published by the sim goroutine — and never touch loop-owned
// state (no Registry.Snapshot, no profiler drain, no event
// scheduling). A run with an active scraper and SSE subscriber
// produces bit-identical digests, decision logs, and invariant
// verdicts to the same seed without the server; the digest-equality
// tests in this package pin that.
package opsapi

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"nezha/internal/obs"
	"nezha/internal/sim"
	"nezha/internal/slo"
)

// Server hosts the ops endpoints. The history source is swappable
// mid-flight (nezha-chaos points the same listener at each campaign's
// fresh History).
type Server struct {
	mu   sync.Mutex
	hist *obs.History
	meta map[string]string

	httpSrv *http.Server
	ln      net.Listener
}

// New builds an unstarted server.
func New() *Server {
	return &Server{meta: make(map[string]string)}
}

// SetHistory swaps the history source serving all read endpoints.
func (s *Server) SetHistory(h *obs.History) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hist = h
}

// SetMeta attaches a static key=value shown on the index endpoint
// (mode, seed, version — whatever the host wants to advertise).
func (s *Server) SetMeta(k, v string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.meta[k] = v
}

func (s *Server) history() *obs.History {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hist
}

// Listen binds addr ("host:port"; port 0 picks a free one), serves in
// a background goroutine, and returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: s.Handler()}
	s.mu.Lock()
	s.ln, s.httpSrv = ln, srv
	s.mu.Unlock()
	go srv.Serve(ln)
	return ln.Addr().String(), nil
}

// Close stops the listener and drops open streams.
func (s *Server) Close() error {
	s.mu.Lock()
	srv := s.httpSrv
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

// Handler returns the ops mux (also usable under a host-owned server
// or httptest).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/api/v1/snapshot", s.handleSnapshot)
	mux.HandleFunc("/api/v1/history", s.handleHistory)
	mux.HandleFunc("/api/v1/stream", s.handleStream)
	mux.HandleFunc("/api/v1/slo", s.handleSLO)
	mux.HandleFunc("/api/v1/flows/top", s.handleFlowsTop)
	mux.HandleFunc("/api/v1/prof", s.handleProf)
	mux.HandleFunc("/api/v1/policy/log", s.handlePolicyLog)
	mux.HandleFunc("/api/v1/chaos/report", s.handleChaosReport)
	mux.HandleFunc("/api/v1/health", s.handleHealth)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	s.mu.Lock()
	meta := make(map[string]string, len(s.meta))
	for k, v := range s.meta {
		meta[k] = v
	}
	s.mu.Unlock()
	writeJSON(w, map[string]any{
		"service": "nezha-opsapi",
		"meta":    meta,
		"endpoints": []string{
			"/metrics",
			"/api/v1/snapshot",
			"/api/v1/history?series=&from=&to=",
			"/api/v1/stream?replay=",
			"/api/v1/slo",
			"/api/v1/flows/top",
			"/api/v1/prof",
			"/api/v1/policy/log",
			"/api/v1/chaos/report",
			"/api/v1/health",
		},
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	h := s.history()
	if h == nil {
		http.Error(w, "no telemetry source attached", http.StatusServiceUnavailable)
		return
	}
	snap := h.Latest()
	if snap == nil {
		http.Error(w, "no snapshot published yet", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	snap.WritePrometheus(w)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	h := s.history()
	if h == nil {
		http.Error(w, "no telemetry source attached", http.StatusServiceUnavailable)
		return
	}
	snap := h.Latest()
	if snap == nil {
		http.Error(w, "no snapshot published yet", http.StatusServiceUnavailable)
		return
	}
	writeJSON(w, snap)
}

// parseSimTime accepts a Go duration ("3s", "1.5s") or bare seconds
// ("3", "3.5") and returns virtual time. Seconds must be finite and
// within ±sim.MaxTime, so the conversion to sim.Time is exact.
func parseSimTime(s string) (sim.Time, error) {
	if s == "" {
		return 0, nil
	}
	if d, err := time.ParseDuration(s); err == nil {
		return sim.Time(d), nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad time %q (want duration like 3s or seconds like 3.5)", s)
	}
	// float64(sim.MaxTime) is 2^63, the first value past the range; NaN
	// fails both comparisons.
	ns := f * float64(sim.Second)
	if !(ns > -float64(sim.MaxTime) && ns < float64(sim.MaxTime)) {
		return 0, fmt.Errorf("time %q out of range (want finite seconds within ±%v)", s, sim.MaxTime)
	}
	return sim.Time(ns), nil
}

// historyResponse is the /api/v1/history payload: matching snapshots
// plus the retained completed transaction spans. handleHistory writes
// it field by field, one snapshot at a time; tests decode it.
type historyResponse struct {
	Snapshots []*obs.Snapshot `json:"snapshots"`
	Spans     []obs.Span      `json:"spans,omitempty"`
	Retained  int             `json:"retained"`
	Published uint64          `json:"published"`
	Evicted   uint64          `json:"evicted"`
}

func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	h := s.history()
	if h == nil {
		http.Error(w, "no telemetry source attached", http.StatusServiceUnavailable)
		return
	}
	q := r.URL.Query()
	from, err := parseSimTime(q.Get("from"))
	if err != nil {
		http.Error(w, "from: "+err.Error(), http.StatusBadRequest)
		return
	}
	to, err := parseSimTime(q.Get("to"))
	if err != nil {
		http.Error(w, "to: "+err.Error(), http.StatusBadRequest)
		return
	}
	var series []string
	if raw := q.Get("series"); raw != "" {
		for _, name := range strings.Split(raw, ",") {
			if name = strings.TrimSpace(name); name != "" {
				series = append(series, name)
			}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	// Each snapshot is built, encoded and dropped before the next, so
	// the response holds one snapshot's rows at a time. The bytes are
	// those of writeJSON(historyResponse{...}): Encode's trailing
	// newline is dropped from every value but the last. A value JSON
	// cannot encode (a NaN) ends the response where it stands.
	bw := bufio.NewWriter(w)
	var buf bytes.Buffer
	val := json.NewEncoder(&buf)
	val.SetEscapeHTML(false)
	encode := func(v any) error {
		buf.Reset()
		if err := val.Encode(v); err != nil {
			return err
		}
		_, err := bw.Write(bytes.TrimSuffix(buf.Bytes(), []byte{'\n'}))
		return err
	}
	bw.WriteString(`{"snapshots":[`)
	first := true
	err = h.Scan(from, to, series, func(snap *obs.Snapshot) error {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		return encode(snap)
	})
	if err != nil {
		return
	}
	bw.WriteByte(']')
	if spans := h.Spans(); len(spans) > 0 {
		bw.WriteString(`,"spans":`)
		if encode(spans) != nil {
			return
		}
	}
	fmt.Fprintf(bw, `,"retained":%d,"published":%d,"evicted":%d}`+"\n", h.Len(), h.Published(), h.Evicted())
	bw.Flush()
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	h := s.history()
	if h == nil {
		http.Error(w, "no telemetry source attached", http.StatusServiceUnavailable)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	replay := 1
	if raw := r.URL.Query().Get("replay"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			http.Error(w, "replay: want a non-negative integer", http.StatusBadRequest)
			return
		}
		replay = n
	}

	ch, cancel := h.Subscribe(64)
	defer cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	var lastT sim.Time = -1
	send := func(snap *obs.Snapshot) error {
		if snap.T <= lastT {
			return nil // already replayed
		}
		lastT = snap.T
		b, err := json.Marshal(snap)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "event: snapshot\ndata: %s\n\n", b); err != nil {
			return err
		}
		fl.Flush()
		return nil
	}
	for _, snap := range h.Tail(replay) {
		if err := send(snap); err != nil {
			return
		}
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case snap, ok := <-ch:
			if !ok {
				return
			}
			if err := send(snap); err != nil {
				return
			}
		}
	}
}

// handleSLO serves the latest published snapshot's SLO view: per-vNIC
// latency histogram summaries, violation and drop counters, burn
// state, and the top-K heavy hitters. Like every read endpoint it
// touches only the History — the SLO tracker itself is loop-owned.
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	h := s.history()
	if h == nil {
		http.Error(w, "no telemetry source attached", http.StatusServiceUnavailable)
		return
	}
	snap := h.Latest()
	if snap == nil {
		http.Error(w, "no snapshot published yet", http.StatusServiceUnavailable)
		return
	}
	if snap.SLO == nil {
		http.Error(w, "no SLO tracker attached (run with the SLO layer enabled)", http.StatusNotFound)
		return
	}
	writeJSON(w, map[string]any{"t": snap.T, "slo": snap.SLO})
}

// flowsTopResponse is the /api/v1/flows/top payload: the SLO layer's
// sketch-ranked heavy hitters (exact-identity candidates over all
// packets).
type flowsTopResponse struct {
	T   sim.Time      `json:"t"`
	Hot []slo.HotFlow `json:"hot_flows,omitempty"`
}

func (s *Server) handleFlowsTop(w http.ResponseWriter, r *http.Request) {
	h := s.history()
	if h == nil {
		http.Error(w, "no telemetry source attached", http.StatusServiceUnavailable)
		return
	}
	snap := h.Latest()
	if snap == nil {
		http.Error(w, "no snapshot published yet", http.StatusServiceUnavailable)
		return
	}
	if snap.SLO == nil {
		http.Error(w, "no SLO tracker attached (run with the SLO layer enabled)", http.StatusNotFound)
		return
	}
	writeJSON(w, flowsTopResponse{T: snap.T, Hot: snap.SLO.HotFlows})
}

func (s *Server) handleProf(w http.ResponseWriter, r *http.Request) {
	h := s.history()
	if h == nil {
		http.Error(w, "no telemetry source attached", http.StatusServiceUnavailable)
		return
	}
	b, at := h.Prof()
	if len(b) == 0 {
		http.Error(w, "no profile captured (run with the profiler attached)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", `attachment; filename="nezha-prof.pb.gz"`)
	w.Header().Set("X-Nezha-Prof-T", at.String())
	w.Write(b)
}

func (s *Server) handlePolicyLog(w http.ResponseWriter, r *http.Request) {
	h := s.history()
	if h == nil {
		http.Error(w, "no telemetry source attached", http.StatusServiceUnavailable)
		return
	}
	log := h.PolicyLog()
	if log == nil {
		log = []string{}
	}
	writeJSON(w, map[string]any{"log": log})
}

func (s *Server) handleChaosReport(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.hist
	s.mu.Unlock()
	var v any
	if h != nil {
		v = h.ChaosReport()
	}
	if v == nil {
		http.Error(w, "no chaos report available", http.StatusNotFound)
		return
	}
	writeJSON(w, v)
}

// Health is the /api/v1/health payload, derived from the latest
// published snapshot's controller liveness series (the PR 7 CTRL
// surface) plus the invariant-event ring.
type Health struct {
	T sim.Time `json:"t"`
	// HasCtrl reports whether the run publishes controller liveness at
	// all (false for controller-less baselines).
	HasCtrl        bool    `json:"has_ctrl"`
	CtrlUp         bool    `json:"ctrl_up"`
	Recoveries     float64 `json:"recoveries"`
	LastRecoveryMs float64 `json:"last_recovery_ms"`
	Violations     int     `json:"invariant_violations"`
	Snapshots      int     `json:"snapshots_retained"`
	Published      uint64  `json:"snapshots_published"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := s.history()
	if h == nil {
		http.Error(w, "no telemetry source attached", http.StatusServiceUnavailable)
		return
	}
	out := Health{
		Violations: len(h.Invariants()),
		Snapshots:  h.Len(),
		Published:  h.Published(),
	}
	if snap := h.Latest(); snap != nil {
		out.T = snap.T
		for i := range snap.Points {
			p := &snap.Points[i]
			switch p.Name {
			case "ctrl_up":
				out.HasCtrl = true
				out.CtrlUp = p.Value > 0
			case "ctrl_recoveries_total":
				out.Recoveries += p.Value
			case "ctrl_recovery_ms":
				out.LastRecoveryMs = p.Value
			}
		}
	}
	writeJSON(w, out)
}
