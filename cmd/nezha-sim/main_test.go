package main

import (
	"bytes"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nezha/internal/cluster"
)

// TestDefaultFlagsSpec pins the flags' defaults to the canonical world.
func TestDefaultFlagsSpec(t *testing.T) {
	if got, want := spec(), cluster.DefaultSpec(); got != want {
		t.Fatalf("default flags build %+v, want cluster.DefaultSpec() %+v", got, want)
	}
}

func TestValidate(t *testing.T) {
	for _, c := range []struct {
		servers, clients    int
		cps, sample, pace   float64
		duration, slo, hold time.Duration
		policy, noNezha     bool
		want                string // "" = valid; else a substring of the error
	}{
		{servers: 24, clients: 8, cps: 20000, duration: 20 * time.Second},
		{servers: 4, clients: 3, cps: 1, duration: time.Nanosecond},
		{servers: 8, clients: 8, cps: 20000, duration: time.Second, want: "8 clients need 9 servers, have 8"},
		{servers: 2, clients: 8, cps: 20000, duration: time.Second, want: "8 clients need 9 servers, have 2"},
		{servers: 8, clients: 0, cps: 20000, duration: time.Second, want: "-clients 0"},
		{servers: 24, clients: 8, cps: -5, duration: time.Second, want: "-cps -5"},
		{servers: 24, clients: 8, cps: 0, duration: time.Second, want: "-cps 0"},
		{servers: 24, clients: 8, cps: 20000, duration: -time.Second, want: "-duration -1s"},
		{servers: 24, clients: 8, cps: 20000, duration: 0, want: "-duration 0s"},
		{servers: 24, clients: 8, cps: 20000, duration: time.Second, policy: true, noNezha: true, want: "-policy needs the controller"},
		{servers: 24, clients: 8, cps: 20000, duration: time.Second, policy: true},
		{servers: 110, clients: 98, cps: 20000, duration: time.Second},
		{servers: 110, clients: 99, cps: 20000, duration: time.Second, want: "99 clients: the address plan holds 1 to 98"},
		{servers: 110, clients: 100, cps: 20000, duration: time.Second, want: "100 clients: the address plan holds 1 to 98"},
		{servers: 24, clients: 8, cps: 20000, duration: time.Second, sample: 1},
		{servers: 24, clients: 8, cps: 20000, duration: time.Second, sample: 0.01},
		{servers: 24, clients: 8, cps: 20000, duration: time.Second, sample: math.NaN(), want: "-obs-sample NaN"},
		{servers: 24, clients: 8, cps: 20000, duration: time.Second, sample: -3, want: "-obs-sample -3"},
		{servers: 24, clients: 8, cps: 20000, duration: time.Second, sample: 1.5, want: "-obs-sample 1.5"},
		{servers: 24, clients: 8, cps: 20000, duration: time.Second, sample: math.Inf(1), want: "-obs-sample +Inf"},
		{servers: 24, clients: 8, cps: 20000, duration: time.Second, sample: math.Inf(-1), want: "-obs-sample -Inf"},
		{servers: 24, clients: 8, cps: math.Inf(1), duration: time.Second, want: "-cps +Inf"},
		{servers: 24, clients: 8, cps: math.NaN(), duration: time.Second, want: "-cps NaN"},
		{servers: 24, clients: 8, cps: 20000, duration: time.Second, pace: 1},
		{servers: 24, clients: 8, cps: 20000, duration: time.Second, pace: math.NaN(), want: "-pace NaN"},
		{servers: 24, clients: 8, cps: 20000, duration: time.Second, pace: -2, want: "-pace -2"},
		{servers: 24, clients: 8, cps: 20000, duration: time.Second, pace: math.Inf(1), want: "-pace +Inf"},
		{servers: 24, clients: 8, cps: 20000, duration: time.Second, slo: 2 * time.Millisecond},
		{servers: 24, clients: 8, cps: 20000, duration: time.Second, slo: -5 * time.Millisecond, want: "-slo -5ms"},
		{servers: 24, clients: 8, cps: 20000, duration: time.Second, hold: time.Second},
		{servers: 24, clients: 8, cps: 20000, duration: time.Second, hold: -time.Second, want: "-hold -1s"},
	} {
		err := validate(flagValues{
			servers: c.servers, clients: c.clients, cps: c.cps, sample: c.sample, pace: c.pace,
			duration: c.duration, slo: c.slo, hold: c.hold, usePolicy: c.policy, noNezha: c.noNezha,
		})
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%+v: unexpected error %v", c, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%+v: error %v, want one containing %q", c, err, c.want)
		}
	}
}

// TestMain lets a test run the command itself: with NEZHA_SIM_MAIN=1
// the test binary is nezha-sim, its arguments the command's flags.
func TestMain(m *testing.M) {
	if os.Getenv("NEZHA_SIM_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUncreatableOutputExits runs the command with each output flag
// pointed into a missing directory, and with two flags naming one
// file. It must exit 1 with one "nezha-sim: " error line naming the
// path and no stack trace, having printed nothing: the outputs are
// created before the world is built.
func TestUncreatableOutputExits(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "missing", "out")
	twice := filepath.Join(dir, "out")
	for _, args := range [][]string{
		{"-obs", bad},
		{"-obs-prom", bad},
		{"-prof", bad},
		{"-obs-prom", twice, "-prof", twice},
		{"-obs-prom", "-"},
		{"-prof", "-"},
	} {
		var flags []string
		for i := 0; i < len(args); i += 2 {
			flags = append(flags, args[i])
		}
		t.Run(strings.Join(flags, " "), func(t *testing.T) {
			cmd := exec.Command(os.Args[0], args...)
			cmd.Env = append(os.Environ(), "NEZHA_SIM_MAIN=1")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Fatalf("exit: %v, want status 1; stderr:\n%s", err, stderr.String())
			}
			msg := stderr.String()
			if !strings.HasPrefix(msg, "nezha-sim: ") || !strings.Contains(msg, args[1]) ||
				strings.Count(msg, "\n") != 1 || strings.Contains(msg, "goroutine") {
				t.Errorf("stderr %q, want one \"nezha-sim: \" line naming %s", msg, args[1])
			}
			if stdout.Len() != 0 {
				t.Errorf("printed %d bytes before failing: the run started", stdout.Len())
			}
		})
	}
}

// TestFailedObsWriteStops runs a 60 s scenario whose -obs stream cannot
// be written: the run must stop at the first failed snapshot and exit 1
// naming the error, not simulate the remaining minute first.
func TestFailedObsWriteStops(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	cmd := exec.Command(os.Args[0], "-duration", "60s", "-obs", "/dev/full")
	cmd.Env = append(os.Environ(), "NEZHA_SIM_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("exit: %v, want status 1; stderr:\n%s", err, stderr.String())
	}
	if msg := stderr.String(); !strings.HasPrefix(msg, "nezha-sim: ") || !strings.Contains(msg, "no space left") {
		t.Errorf("stderr %q, want one \"nezha-sim: \" line naming the write error", msg)
	}
	if rows := strings.Count(stdout.String(), " local\n") + strings.Count(stdout.String(), " offloaded\n"); rows != 1 || strings.Contains(stdout.String(), "summary") {
		t.Errorf("printed %d per-second rows and a summary: %v; the run went on after the failed write:\n%s", rows, strings.Contains(stdout.String(), "summary"), stdout.String())
	}
}
