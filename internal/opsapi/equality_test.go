package opsapi_test

// The observer-effect-free guarantee, pinned end to end: a chaos
// campaign (and a policy scenario) run with a live opsapi server,
// an aggressive scraper, and an SSE subscriber must produce
// bit-identical digests, decision logs, and invariant verdicts to the
// same seed run with no ops surface at all.

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"nezha/internal/chaos"
	"nezha/internal/obs"
	"nezha/internal/opsapi"
	"nezha/internal/sim"
)

// scrape hammers every read endpoint until ctx is done, counting
// successful bodies read.
func scrape(ctx context.Context, base string, hits *atomic.Int64) {
	eps := []string{
		"/metrics", "/api/v1/snapshot", "/api/v1/history",
		"/api/v1/history?series=vswitch_delivered_total&from=0&to=1h",
		"/api/v1/policy/log", "/api/v1/chaos/report", "/api/v1/health", "/api/v1/prof",
	}
	for i := 0; ctx.Err() == nil; i++ {
		req, _ := http.NewRequestWithContext(ctx, "GET", base+eps[i%len(eps)], nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			continue
		}
		if _, err := io.Copy(io.Discard, resp.Body); err == nil && resp.StatusCode == http.StatusOK {
			hits.Add(1)
		}
		resp.Body.Close()
	}
}

// subscribe holds an SSE stream open until ctx is done, counting
// snapshot frames.
func subscribe(ctx context.Context, base string, frames *atomic.Int64) {
	req, _ := http.NewRequestWithContext(ctx, "GET", base+"/api/v1/stream?replay=0", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "data: ") {
			frames.Add(1)
		}
	}
}

func violations(vs []chaos.Violation) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	return out
}

// TestCampaignDigestUnchangedByLiveServer is the acceptance check for
// the live ops surface: same seed, with and without an active server.
func TestCampaignDigestUnchangedByLiveServer(t *testing.T) {
	cfg := chaos.CampaignConfig{
		Seed:      7,
		Duration:  6 * sim.Second,
		Events:    10,
		CtrlCrash: true, // exercise ctrl series + recovery spans too
		Obs:       true,
		Prof:      true,
	}

	base, err := chaos.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Same seed, now published into a History served live, with a
	// scraper and an SSE subscriber active for the whole run. Pace the
	// campaign to ~1s wall so the observers demonstrably overlap it.
	live := cfg
	live.Hist = obs.NewHistory(obs.HistoryOptions{})
	live.Pace = float64(cfg.Duration) / float64(sim.Second) // 1s wall

	srv := opsapi.New()
	srv.SetHistory(live.Hist)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	url := "http://" + addr

	ctx, cancel := context.WithCancel(context.Background())
	var hits, frames atomic.Int64
	go scrape(ctx, url, &hits)
	go subscribe(ctx, url, &frames)

	withSrv, err := chaos.RunCampaign(live)
	cancel()
	if err != nil {
		t.Fatal(err)
	}

	if hits.Load() == 0 {
		t.Error("scraper never landed a successful read during the run; the test proved nothing")
	}
	if frames.Load() == 0 {
		t.Error("SSE subscriber saw no frames during the run; the test proved nothing")
	}
	t.Logf("observer pressure during the live run: %d scrapes, %d SSE frames", hits.Load(), frames.Load())

	if base.Digest != withSrv.Digest {
		t.Errorf("state digest diverged: serverless=%016x live=%016x", base.Digest, withSrv.Digest)
	}
	if base.TraceDigest != withSrv.TraceDigest {
		t.Errorf("trace digest diverged: serverless=%016x live=%016x", base.TraceDigest, withSrv.TraceDigest)
	}
	if base.Completed != withSrv.Completed || base.Declared != withSrv.Declared || base.Failovers != withSrv.Failovers {
		t.Errorf("traffic counters diverged: serverless={%d %d %d} live={%d %d %d}",
			base.Completed, base.Declared, base.Failovers,
			withSrv.Completed, withSrv.Declared, withSrv.Failovers)
	}
	bv, lv := violations(base.Violations), violations(withSrv.Violations)
	if strings.Join(bv, "\n") != strings.Join(lv, "\n") {
		t.Errorf("invariant verdicts diverged:\nserverless: %v\nlive:       %v", bv, lv)
	}

	// The run must have left the surface fully populated.
	if live.Hist.Published() == 0 {
		t.Error("live run published no snapshots")
	}
	if b, _ := live.Hist.Prof(); len(b) == 0 {
		t.Error("live run captured no attribution profile")
	}
	if live.Hist.ChaosReport() == nil {
		t.Error("live run stored no chaos report")
	}
}

// TestScenarioDecisionLogUnchangedByHistory runs the policy scenario
// with and without the ops surface attached and requires the decision
// log — the golden-file regression handle — to stay byte-identical.
func TestScenarioDecisionLogUnchangedByHistory(t *testing.T) {
	cfg := chaos.ScenarioConfig{
		Seed:     3,
		Profile:  chaos.ProfileDiurnal,
		Duration: 12 * sim.Second,
	}
	base, err := chaos.RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}

	live := cfg
	live.Hist = obs.NewHistory(obs.HistoryOptions{})
	srv := opsapi.New()
	srv.SetHistory(live.Hist)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	var hits atomic.Int64
	go scrape(ctx, "http://"+addr, &hits)

	withHist, err := chaos.RunScenario(live)
	cancel()
	if err != nil {
		t.Fatal(err)
	}

	if got, want := strings.Join(withHist.DecisionLog, "\n"), strings.Join(base.DecisionLog, "\n"); got != want {
		t.Errorf("decision log diverged with the ops surface attached:\nwant:\n%s\ngot:\n%s", want, got)
	}
	if base.Digest != withHist.Digest {
		t.Errorf("scenario digest diverged: %016x vs %016x", base.Digest, withHist.Digest)
	}
	if base.ThrashCount != withHist.ThrashCount || base.Completed != withHist.Completed {
		t.Errorf("scenario counters diverged: {%d %d} vs {%d %d}",
			base.ThrashCount, base.Completed, withHist.ThrashCount, withHist.Completed)
	}
	if live.Hist.Published() == 0 {
		t.Error("scenario run published no snapshots")
	}
	if live.Hist.ChaosReport() == nil {
		t.Error("scenario run stored no report view")
	}
}
