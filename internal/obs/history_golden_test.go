package obs_test

// What the History hands back, pinned byte for byte: the JSON of the
// latest snapshot, of every retained snapshot, and of a series-filtered
// query, after a chaos campaign with obs, prof and SLO on fed the ring.
// A change to how snapshots are retained must leave it identical.
//
// Regenerate (only when the exported series deliberately change):
//
//	HISTORY_GOLDEN_UPDATE=1 go test ./internal/obs -run TestHistoryGolden

import (
	"bytes"
	"os"
	"testing"

	"nezha/internal/chaos"
	"nezha/internal/obs"
	"nezha/internal/sim"
)

const historyGoldenPath = "testdata/history_golden.json"

// historyGolden runs seed 1 for 8 virtual seconds with a History
// attached and renders three reads of it as one JSON object, one
// snapshot a line.
func historyGolden(t *testing.T) []byte {
	t.Helper()
	h := goldenCampaign(t)
	var b bytes.Buffer
	section := func(name string, snaps []*obs.Snapshot) {
		b.WriteString(name)
		for i, s := range snaps {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteByte('\n')
			if err := s.WriteJSONLine(&b); err != nil {
				t.Fatal(err)
			}
			b.Truncate(b.Len() - 1) // the line's newline
		}
		b.WriteString("\n]")
	}
	b.WriteString("{\"latest\":\n")
	if err := h.Latest().WriteJSONLine(&b); err != nil {
		t.Fatal(err)
	}
	b.Truncate(b.Len() - 1)
	section(",\n\"query\":[", h.Query(0, 0, nil))
	section(",\n\"series\":[", h.Query(0, 0, []string{"vswitch_drops_total", "vswitch_queue_wait_ns"}))
	b.WriteString("}\n")
	return b.Bytes()
}

// goldenCampaign runs seed 1 for 8 virtual seconds with obs, prof and
// SLO on and returns the History it fed.
func goldenCampaign(t *testing.T) *obs.History {
	t.Helper()
	h := obs.NewHistory(obs.HistoryOptions{})
	_, err := chaos.RunCampaign(chaos.CampaignConfig{
		Seed: 1, Duration: 8 * sim.Second,
		Obs: true, Prof: true, SLO: true, SLOObjective: 100 * sim.Millisecond,
		Hist: h,
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestHistoryGolden requires the three reads to equal the committed
// golden.
func TestHistoryGolden(t *testing.T) {
	got := historyGolden(t)
	if os.Getenv("HISTORY_GOLDEN_UPDATE") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(historyGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d bytes to %s", len(got), historyGoldenPath)
		return
	}
	want, err := os.ReadFile(historyGoldenPath)
	if err != nil {
		t.Fatalf("missing golden (generate with HISTORY_GOLDEN_UPDATE=1): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("history reads differ from %s at line %d:\n got %.400s\nwant %.400s", historyGoldenPath, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("history reads have %d lines, %s has %d", len(gl), historyGoldenPath, len(wl))
}
