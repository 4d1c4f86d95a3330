package opsapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"nezha/internal/obs"
	"nezha/internal/sim"
)

// FuzzHistoryQuery drives /api/v1/history with arbitrary from, to and
// series values: every response must be a 200 carrying valid JSON or a
// 400, and no input may panic the handler.
func FuzzHistoryQuery(f *testing.F) {
	for _, seed := range [][3]string{
		{"", "", ""}, {"3s", "5", "pkts_total"}, {"1e300", "", ""}, {"NaN", "Inf", ""},
		{"-Inf", "-1e300", "a,,b"}, {"9223372036.854775807", "2562047h", "ctrl_up, pkts_total"},
		{"-5s", "0", ","}, {"0x1p62", "1e-320", "\x00"},
	} {
		f.Add(seed[0], seed[1], seed[2])
	}
	h := obs.NewHistory(obs.HistoryOptions{Snapshots: 4})
	for i := 1; i <= 6; i++ {
		h.Publish(testSnap(sim.Time(i) * sim.Second))
	}
	srv := New()
	srv.SetHistory(h)
	handler := srv.Handler()
	f.Fuzz(func(t *testing.T, from, to, series string) {
		q := url.Values{"from": {from}, "to": {to}, "series": {series}}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest("GET", "/api/v1/history?"+q.Encode(), nil))
		switch rec.Code {
		case http.StatusOK:
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("from=%q to=%q series=%q: 200 with invalid JSON %q", from, to, series, rec.Body)
			}
		case http.StatusBadRequest:
		default:
			t.Fatalf("from=%q to=%q series=%q: status %d, want 200 or 400", from, to, series, rec.Code)
		}
	})
}
