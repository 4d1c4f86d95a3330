package opsapi_test

// The SLO read endpoints, driven end to end: an overloaded campaign
// publishes snapshots (with the embedded SLO view) into a History,
// and the HTTP surface must reproduce the p99 spike at /api/v1/slo
// and the overloaded vNIC's flows at /api/v1/flows/top.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"nezha/internal/chaos"
	"nezha/internal/obs"
	"nezha/internal/opsapi"
	"nezha/internal/sim"
	"nezha/internal/slo"
)

func TestSLOEndpointsServeOverloadedCampaign(t *testing.T) {
	hist := obs.NewHistory(obs.HistoryOptions{})
	objective := 2 * sim.Millisecond
	rep, err := chaos.RunCampaign(chaos.CampaignConfig{
		Seed: 11, Duration: 4 * sim.Second, RatePerClient: 2500,
		Obs: true, Hist: hist,
		SLO: true, SLOObjective: objective,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SLOWorstP99 <= objective {
		t.Fatalf("overload rig never spiked past the objective (p99 %v); the endpoint test would prove nothing", rep.SLOWorstP99)
	}

	srv := opsapi.New()
	srv.SetHistory(hist)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/api/v1/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/api/v1/slo: %s", resp.Status)
	}
	var sloBody struct {
		T   sim.Time  `json:"t"`
		SLO *slo.View `json:"slo"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sloBody); err != nil {
		t.Fatalf("/api/v1/slo not JSON: %v", err)
	}
	if sloBody.SLO == nil || len(sloBody.SLO.VNICs) == 0 {
		t.Fatal("/api/v1/slo served no per-vNIC ledger")
	}
	if got := sloBody.SLO.ObjectiveNS; got != int64(objective) {
		t.Errorf("objective = %d ns, want %d", got, int64(objective))
	}
	spiked := false
	for _, vn := range sloBody.SLO.VNICs {
		if vn.P99 > uint64(objective) {
			spiked = true
		}
	}
	if !spiked {
		t.Errorf("no vNIC at /api/v1/slo shows a p99 above the %v objective: %+v", objective, sloBody.SLO.VNICs)
	}

	resp, err = http.Get(ts.URL + "/api/v1/flows/top")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/api/v1/flows/top: %s", resp.Status)
	}
	var flows struct {
		T   sim.Time      `json:"t"`
		Hot []slo.HotFlow `json:"hot_flows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&flows); err != nil {
		t.Fatalf("/api/v1/flows/top not JSON: %v", err)
	}
	if len(flows.Hot) == 0 {
		t.Fatal("/api/v1/flows/top served no sketch-ranked heavy hitters")
	}
	// The overloaded server vNIC (the campaign BE VM, vNIC 100) must
	// surface among the hot flows — its request stream is what is
	// drowning the vSwitch.
	seenServer := false
	for _, f := range flows.Hot {
		if f.VNIC == 100 {
			seenServer = true
		}
		if f.Flow == "" || f.Packets == 0 {
			t.Errorf("malformed hot flow: %+v", f)
		}
	}
	if !seenServer {
		t.Errorf("overloaded vNIC 100 absent from hot flows: %+v", flows.Hot)
	}
}
