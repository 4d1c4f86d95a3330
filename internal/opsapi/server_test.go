package opsapi

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"nezha/internal/obs"
	"nezha/internal/packet"
	"nezha/internal/sim"
)

func testSnap(t sim.Time) *obs.Snapshot {
	return &obs.Snapshot{T: t, Points: []obs.Point{
		{Name: "pkts_total", Kind: "counter", Value: float64(t / sim.Second)},
		{Name: "ctrl_up", Kind: "gauge", Value: 1},
		{Name: "ctrl_recoveries_total", Kind: "counter", Value: 2},
		{Name: "ctrl_recovery_ms", Kind: "gauge", Value: 37.5},
	}}
}

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b), resp.Header
}

// TestEndpointsWithoutHistory pins the unavailable-state contract:
// data endpoints answer 503 until a telemetry source is attached, and
// the chaos report is a 404 (absent, not broken).
func TestEndpointsWithoutHistory(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()

	for _, ep := range []string{
		"/metrics", "/api/v1/snapshot", "/api/v1/history",
		"/api/v1/stream", "/api/v1/prof", "/api/v1/policy/log", "/api/v1/health",
		"/api/v1/slo", "/api/v1/flows/top",
	} {
		if code, body, _ := get(t, ts.URL+ep); code != http.StatusServiceUnavailable {
			t.Errorf("%s without history: %d %q, want 503", ep, code, body)
		}
	}
	if code, _, _ := get(t, ts.URL+"/api/v1/chaos/report"); code != http.StatusNotFound {
		t.Errorf("chaos/report without anything: %d, want 404", code)
	}
}

// TestIndexAndNotFound covers the index document and unknown paths.
func TestIndexAndNotFound(t *testing.T) {
	srv := New()
	srv.SetMeta("mode", "test")
	srv.SetMeta("seed", "42")
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body, hdr := get(t, ts.URL+"/")
	if code != http.StatusOK {
		t.Fatalf("index: %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("index content-type = %q", ct)
	}
	var idx struct {
		Service   string            `json:"service"`
		Meta      map[string]string `json:"meta"`
		Endpoints []string          `json:"endpoints"`
	}
	if err := json.Unmarshal([]byte(body), &idx); err != nil {
		t.Fatalf("index not JSON: %v", err)
	}
	if idx.Service != "nezha-opsapi" || idx.Meta["mode"] != "test" || idx.Meta["seed"] != "42" {
		t.Errorf("index = %+v", idx)
	}
	if len(idx.Endpoints) != 10 {
		t.Errorf("index lists %d endpoints, want 10", len(idx.Endpoints))
	}
	if code, _, _ := get(t, ts.URL+"/nope"); code != http.StatusNotFound {
		t.Errorf("unknown path: %d, want 404", code)
	}
}

// TestMetricsAndSnapshot checks the two latest-state endpoints through
// the attach → publish lifecycle.
func TestMetricsAndSnapshot(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	h := obs.NewHistory(obs.HistoryOptions{})
	srv.SetHistory(h)
	// Attached but nothing published yet.
	if code, body, _ := get(t, ts.URL+"/metrics"); code != http.StatusServiceUnavailable || !strings.Contains(body, "no snapshot") {
		t.Errorf("/metrics pre-publish: %d %q", code, body)
	}
	if code, _, _ := get(t, ts.URL+"/api/v1/snapshot"); code != http.StatusServiceUnavailable {
		t.Errorf("/api/v1/snapshot pre-publish: want 503")
	}

	h.Publish(testSnap(3 * sim.Second))

	code, body, hdr := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d %q", code, body)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content-type = %q", ct)
	}
	if !strings.Contains(body, "# TYPE pkts_total counter") || !strings.Contains(body, "pkts_total 3") {
		t.Errorf("/metrics body missing exposition lines:\n%s", body)
	}

	code, body, _ = get(t, ts.URL+"/api/v1/snapshot")
	if code != http.StatusOK {
		t.Fatalf("/api/v1/snapshot: %d", code)
	}
	var snap struct {
		T      sim.Time `json:"t"`
		Series []struct {
			Name string `json:"name"`
		} `json:"series"`
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("snapshot not JSON: %v", err)
	}
	if snap.T != 3*sim.Second || len(snap.Series) != 4 {
		t.Errorf("snapshot = t=%v series=%d, want t=3s series=4", snap.T, len(snap.Series))
	}
}

// TestHistoryEndpoint covers time-window forms (duration and bare
// seconds), the series filter, bookkeeping counters, and 400s on
// malformed bounds.
func TestHistoryEndpoint(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	h := obs.NewHistory(obs.HistoryOptions{Snapshots: 4})
	srv.SetHistory(h)
	for i := 1; i <= 6; i++ { // 2 evicted
		h.Publish(testSnap(sim.Time(i) * sim.Second))
	}
	h.SetSpans([]obs.Span{{Kind: "offload", VNIC: 7}})

	fetch := func(query string) (int, historyResponse) {
		code, body, _ := get(t, ts.URL+"/api/v1/history"+query)
		var hr historyResponse
		if code == http.StatusOK {
			if err := json.Unmarshal([]byte(body), &hr); err != nil {
				t.Fatalf("history %q not JSON: %v (%s)", query, err, body)
			}
		}
		return code, hr
	}

	if code, hr := fetch(""); code != 200 || len(hr.Snapshots) != 4 || hr.Retained != 4 || hr.Published != 6 || hr.Evicted != 2 {
		t.Errorf("full history: code=%d snaps=%d retained=%d published=%d evicted=%d",
			code, len(hr.Snapshots), hr.Retained, hr.Published, hr.Evicted)
	}
	// Duration form and bare-seconds form select the same window.
	_, byDur := fetch("?from=4s&to=5s")
	_, bySec := fetch("?from=4&to=5")
	if len(byDur.Snapshots) != 2 || len(bySec.Snapshots) != 2 {
		t.Errorf("window forms disagree: duration=%d bare=%d, want 2 each", len(byDur.Snapshots), len(bySec.Snapshots))
	}
	if code, hr := fetch("?series=ctrl_up,%20pkts_total"); code != 200 {
		t.Errorf("series filter: code=%d", code)
	} else {
		for _, s := range hr.Snapshots {
			if len(s.Points) != 2 {
				t.Fatalf("series filter kept %d points, want 2", len(s.Points))
			}
		}
	}
	if _, hr := fetch(""); len(hr.Spans) != 1 || hr.Spans[0].Kind != "offload" {
		t.Errorf("history spans = %+v, want the offload span", hr.Spans)
	}
	// Seconds must be finite and inside sim.Time's range: past it, the
	// float-to-integer conversion is implementation-defined in Go.
	for _, q := range []string{"?from=banana", "?to=1x", "?from=1e300", "?from=NaN", "?to=Inf",
		"?from=-Inf", "?to=9223372037", "?from=-9223372037", "?to=2562048h"} {
		if code, _ := fetch(q); code != http.StatusBadRequest {
			t.Errorf("history%s: code=%d, want 400", q, code)
		}
	}
	if code, hr := fetch("?from=-9223372036&to=9223372036"); code != 200 || len(hr.Snapshots) != 4 {
		t.Errorf("history over the whole sim.Time range: code=%d snaps=%d, want 200 and 4", code, len(hr.Snapshots))
	}
}

// TestHistoryStreamMatchesWriteJSON checks that the streamed
// /api/v1/history body is byte for byte what encoding the whole
// response at once writes, for registry snapshots carrying labels JSON
// would HTML-escape, flows, spans and help, with and without a series
// filter and a window.
func TestHistoryStreamMatchesWriteJSON(t *testing.T) {
	ob := obs.New(obs.Options{})
	c := ob.Reg.GetCounter("pkts_total", obs.L("node", "<a&b>"))
	var wait obs.Histogram
	wait.Observe(700)
	obs.Register(ob.Reg, &wait, obs.L("node", "a"), &obs.Table[obs.Histogram]{Series: []obs.Series[obs.Histogram]{{
		Name: "wait_ns", Kind: obs.KindHistogram, Hist: func(h *obs.Histogram) *obs.Histogram { return h },
	}}})
	obs.Register(ob.Reg, c, nil, &obs.Table[obs.Counter]{
		Series: []obs.Series[obs.Counter]{{Name: "pkts_total", Help: "Packets <sent> & counted."}},
		Collect: func(c *obs.Counter, emit obs.Emit) {
			emit("dyn", obs.L("vnic", strconv.FormatUint(c.Load()%3, 10)), obs.KindGauge, 0.5)
		},
	})
	ob.Flows.Observe(packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: packet.ProtoTCP}, 100)
	h := obs.NewHistory(obs.HistoryOptions{Snapshots: 6})
	pub := &obs.Publisher{Obs: ob, Hist: h}
	for i := 1; i <= 9; i++ {
		ob.Spans.Begin("offload", uint32(i), 1, sim.Time(i)*sim.Second)
		ob.Spans.End("offload", uint32(i), 1, sim.Time(i)*sim.Second, "commit")
		c.Add(uint64(i))
		pub.PublishNow(sim.Time(i) * sim.Second)
	}
	srv := New()
	srv.SetHistory(h)
	for _, q := range []string{"", "?series=pkts_total,wait_ns", "?from=5s&to=7", "?from=100", "?series=nope"} {
		req := httptest.NewRequest("GET", "/api/v1/history"+q, nil)
		got := httptest.NewRecorder()
		srv.Handler().ServeHTTP(got, req)

		from, _ := parseSimTime(req.URL.Query().Get("from"))
		to, _ := parseSimTime(req.URL.Query().Get("to"))
		var series []string
		if raw := req.URL.Query().Get("series"); raw != "" {
			series = strings.Split(raw, ",")
		}
		want := httptest.NewRecorder()
		writeJSON(want, historyResponse{
			Snapshots: h.Query(from, to, series),
			Spans:     h.Spans(),
			Retained:  h.Len(),
			Published: h.Published(),
			Evicted:   h.Evicted(),
		})
		if got.Code != want.Code || got.Body.String() != want.Body.String() {
			t.Errorf("history%s streamed:\n%d %s\nwant:\n%d %s", q, got.Code, got.Body, want.Code, want.Body)
		}
		if ct := got.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("history%s content-type = %q", q, ct)
		}
	}
}

// TestStreamSSE drives the live stream: replayed scrollback, live
// publishes, frame dedupe, and clean teardown on client cancel.
func TestStreamSSE(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	h := obs.NewHistory(obs.HistoryOptions{})
	srv.SetHistory(h)
	for i := 1; i <= 3; i++ {
		h.Publish(testSnap(sim.Time(i) * sim.Second))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/api/v1/stream?replay=2", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content-type = %q", ct)
	}

	frames := make(chan sim.Time, 16)
	go func() {
		defer close(frames)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var s struct {
				T sim.Time `json:"t"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &s); err != nil {
				t.Errorf("bad SSE data frame: %v", err)
				return
			}
			frames <- s.T
		}
	}()

	want := func(wantT sim.Time) {
		t.Helper()
		select {
		case got := <-frames:
			if got != wantT {
				t.Fatalf("frame T = %v, want %v", got, wantT)
			}
		case <-ctx.Done():
			t.Fatalf("timed out waiting for frame T=%v", wantT)
		}
	}
	// replay=2 scrolls back over t=2s,3s; t=1s stays out.
	want(2 * sim.Second)
	want(3 * sim.Second)
	// A live publish with T at/below the replayed high-water mark is
	// deduped; the next fresh one flows through.
	h.Publish(testSnap(3 * sim.Second))
	h.Publish(testSnap(4 * sim.Second))
	want(4 * sim.Second)

	cancel() // client hangs up; the handler must release its subscription
	for range frames {
	}
	deadline := time.Now().Add(5 * time.Second)
	for h.Subscribers() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := h.Subscribers(); n != 0 {
		t.Errorf("subscription leaked after client cancel: %d live", n)
	}
}

// TestStreamBadReplay rejects malformed replay values.
func TestStreamBadReplay(t *testing.T) {
	srv := New()
	srv.SetHistory(obs.NewHistory(obs.HistoryOptions{}))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, q := range []string{"?replay=-1", "?replay=x"} {
		if code, _, _ := get(t, ts.URL+"/api/v1/stream"+q); code != http.StatusBadRequest {
			t.Errorf("stream%s: %d, want 400", q, code)
		}
	}
}

// TestProfEndpoint covers the not-captured 404 and the capture
// download with its metadata headers.
func TestProfEndpoint(t *testing.T) {
	srv := New()
	h := obs.NewHistory(obs.HistoryOptions{})
	srv.SetHistory(h)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code, _, _ := get(t, ts.URL+"/api/v1/prof"); code != http.StatusNotFound {
		t.Errorf("prof before capture: %d, want 404", code)
	}
	h.SetProf(7*sim.Second, []byte{0x1f, 0x8b, 0x08})
	code, body, hdr := get(t, ts.URL+"/api/v1/prof")
	if code != http.StatusOK || body != "\x1f\x8b\x08" {
		t.Fatalf("prof: %d %q", code, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("prof content-type = %q", ct)
	}
	if cd := hdr.Get("Content-Disposition"); !strings.Contains(cd, "nezha-prof.pb.gz") {
		t.Errorf("prof disposition = %q", cd)
	}
	if at := hdr.Get("X-Nezha-Prof-T"); at != (7 * sim.Second).String() {
		t.Errorf("prof capture time header = %q, want %v", at, 7*sim.Second)
	}
}

// TestPolicyLogEndpoint checks the empty-but-valid and populated
// shapes.
func TestPolicyLogEndpoint(t *testing.T) {
	srv := New()
	h := obs.NewHistory(obs.HistoryOptions{})
	srv.SetHistory(h)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body, _ := get(t, ts.URL+"/api/v1/policy/log")
	if code != 200 || strings.TrimSpace(body) != `{"log":[]}` {
		t.Errorf("empty policy log: %d %q", code, body)
	}
	h.SetPolicyLog([]string{"t=1s decision=offload vnic=7"})
	_, body, _ = get(t, ts.URL+"/api/v1/policy/log")
	var out struct {
		Log []string `json:"log"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil || len(out.Log) != 1 || !strings.Contains(out.Log[0], "offload") {
		t.Errorf("policy log = %q (err %v)", body, err)
	}
}

// TestChaosReportEndpoint serves the attached history's report, and
// 404 until there is one.
func TestChaosReportEndpoint(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	h := obs.NewHistory(obs.HistoryOptions{})
	srv.SetHistory(h)
	if code, _, _ := get(t, ts.URL+"/api/v1/chaos/report"); code != http.StatusNotFound {
		t.Errorf("report with empty history: want 404, got %d", code)
	}

	h.SetChaosReport(map[string]any{"seed": 5, "digest": "abc"})
	code, body, _ := get(t, ts.URL+"/api/v1/chaos/report")
	if code != 200 || !strings.Contains(body, `"digest":"abc"`) {
		t.Errorf("history report: %d %q", code, body)
	}

	// A campaign's fresh history has no report yet.
	srv.SetHistory(obs.NewHistory(obs.HistoryOptions{}))
	if code, _, _ := get(t, ts.URL+"/api/v1/chaos/report"); code != http.StatusNotFound {
		t.Errorf("report from a fresh history: want 404, got %d", code)
	}
}

// TestHealthEndpoint derives controller liveness from the published
// snapshot and counts invariant events.
func TestHealthEndpoint(t *testing.T) {
	srv := New()
	h := obs.NewHistory(obs.HistoryOptions{})
	srv.SetHistory(h)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Attached, nothing published: healthy-but-empty, not an error.
	code, body, _ := get(t, ts.URL+"/api/v1/health")
	if code != 200 {
		t.Fatalf("health pre-publish: %d %q", code, body)
	}
	var hz Health
	if err := json.Unmarshal([]byte(body), &hz); err != nil || hz.HasCtrl || hz.Published != 0 {
		t.Errorf("pre-publish health = %+v (err %v)", hz, err)
	}

	h.Publish(testSnap(9 * sim.Second))
	h.AddInvariant(obs.InvariantEvent{At: 4 * sim.Second, Invariant: "conservation", Err: "boom"})
	_, body, _ = get(t, ts.URL+"/api/v1/health")
	if err := json.Unmarshal([]byte(body), &hz); err != nil {
		t.Fatal(err)
	}
	if !hz.HasCtrl || !hz.CtrlUp || hz.Recoveries != 2 || hz.LastRecoveryMs != 37.5 {
		t.Errorf("ctrl fields = %+v", hz)
	}
	if hz.T != 9*sim.Second || hz.Violations != 1 || hz.Published != 1 || hz.Snapshots != 1 {
		t.Errorf("bookkeeping fields = %+v", hz)
	}
}

// TestListenAndClose exercises the real TCP path: ephemeral bind,
// serving, history swap mid-flight, and shutdown.
func TestListenAndClose(t *testing.T) {
	srv := New()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr

	h1 := obs.NewHistory(obs.HistoryOptions{})
	h1.Publish(testSnap(1 * sim.Second))
	srv.SetHistory(h1)
	if code, _, _ := get(t, base+"/api/v1/snapshot"); code != 200 {
		t.Fatalf("snapshot over TCP: %d", code)
	}

	// nezha-chaos swaps a fresh history per campaign on one listener.
	h2 := obs.NewHistory(obs.HistoryOptions{})
	h2.Publish(testSnap(2 * sim.Second))
	srv.SetHistory(h2)
	_, body, _ := get(t, base+"/api/v1/snapshot")
	var snap struct {
		T sim.Time `json:"t"`
	}
	json.Unmarshal([]byte(body), &snap)
	if snap.T != 2*sim.Second {
		t.Errorf("after history swap, snapshot T = %v, want 2s", snap.T)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(base + "/api/v1/health"); err == nil {
		t.Error("server still answering after Close")
	}
}
