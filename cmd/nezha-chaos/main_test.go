package main

import (
	"strings"
	"testing"
)

func TestValidate(t *testing.T) {
	for _, c := range []struct {
		campaigns int
		servers   int
		clients   int
		ctrlAt    string
		midpush   bool
		want      string // "" = valid; else a substring of the error
	}{
		{campaigns: 10, servers: 8, clients: 3},
		{campaigns: 1, servers: 8, clients: 3, ctrlAt: "prepare"},
		{campaigns: 1, servers: 8, clients: 3, midpush: true, ctrlAt: "commit-gap"},
		{campaigns: 0, servers: 8, clients: 3, want: "-campaigns 0: need at least 1"},
		{campaigns: -1, servers: 8, clients: 3, want: "-campaigns -1: need at least 1"},
		{campaigns: 1, servers: 8, clients: 3, ctrlAt: "prepare", midpush: true, want: "pick one"},
	} {
		err := validate(c.campaigns, c.servers, c.clients, c.ctrlAt, c.midpush)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%+v: unexpected error %v", c, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%+v: error %v, want one containing %q", c, err, c.want)
		}
	}
}
