package cluster

// The Prometheus exposition of a telemetry-on world, pinned byte for
// byte: every series name, label set, HELP and TYPE line and value that
// the components' registrations export. A change to how series are
// registered must leave it identical.
//
// Regenerate (only when the exported series deliberately change):
//
//	PROM_GOLDEN_UPDATE=1 go test ./internal/cluster -run TestPrometheusGolden

import (
	"bytes"
	"os"
	"testing"

	"nezha/internal/obs"
	"nezha/internal/prof"
	"nezha/internal/sim"
	"nezha/internal/slo"
)

const promGoldenPath = "testdata/prom_golden.txt"

// promGoldenExposition builds the default world with obs, prof and the
// SLO tracker attached, runs it for one virtual second under load and
// renders one snapshot.
func promGoldenExposition(t *testing.T) []byte {
	t.Helper()
	s := DefaultSpec()
	s.Obs = obs.New(obs.Options{Seed: s.Seed, SampleRate: 0.01})
	s.Prof = prof.New()
	s.SLO = slo.NewTracker(slo.Config{})
	w, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	w.StartLoad()
	w.Loop.Run(sim.Second)
	var b bytes.Buffer
	if err := s.Obs.Snap(w.Loop.Now(), 10).WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestPrometheusGolden requires the exposition to equal the committed
// golden.
func TestPrometheusGolden(t *testing.T) {
	got := promGoldenExposition(t)
	if os.Getenv("PROM_GOLDEN_UPDATE") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(promGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d bytes to %s", len(got), promGoldenPath)
		return
	}
	want, err := os.ReadFile(promGoldenPath)
	if err != nil {
		t.Fatalf("missing golden (generate with PROM_GOLDEN_UPDATE=1): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("exposition differs from %s at line %d:\n got %s\nwant %s", promGoldenPath, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("exposition has %d lines, %s has %d", len(gl), promGoldenPath, len(wl))
}
