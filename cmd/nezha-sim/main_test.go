package main

import (
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
		servers, clients int
		cps              float64
		duration         time.Duration
		policy, noNezha  bool
		want             string // "" = valid; else a substring of the error
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
	} {
		err := validate(c.servers, c.clients, c.cps, c.duration, c.policy, c.noNezha)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%+v: unexpected error %v", c, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%+v: error %v, want one containing %q", c, err, c.want)
		}
	}
}
