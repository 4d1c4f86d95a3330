package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestValidate(t *testing.T) {
	// ok is a valid flag set: the defaults.
	ok := flagValues{campaigns: 10, servers: 8, clients: 3, events: 12, cps: 250,
		duration: 8 * time.Second, ctrlOutage: 1500 * time.Millisecond}
	with := func(edit func(*flagValues)) flagValues {
		f := ok
		edit(&f)
		return f
	}
	for _, c := range []struct {
		f    flagValues
		want string // "" = valid; else a substring of the error
	}{
		{f: ok},
		{f: with(func(f *flagValues) { f.campaigns, f.ctrlAt = 1, "prepare" })},
		{f: with(func(f *flagValues) { f.campaigns, f.midpush, f.ctrlAt = 1, true, "commit-gap" })},
		{f: with(func(f *flagValues) { f.campaigns = 0 }), want: "-campaigns 0: need at least 1"},
		{f: with(func(f *flagValues) { f.campaigns = -1 }), want: "-campaigns -1: need at least 1"},
		{f: with(func(f *flagValues) { f.campaigns, f.ctrlAt, f.midpush = 1, "prepare", true }), want: "pick one"},
		{f: with(func(f *flagValues) { f.cps = -5 }), want: "-cps -5"},
		{f: with(func(f *flagValues) { f.cps = 0 }), want: "-cps 0"},
		{f: with(func(f *flagValues) { f.cps = math.NaN() }), want: "-cps NaN"},
		{f: with(func(f *flagValues) { f.cps = math.Inf(1) }), want: "-cps +Inf"},
		{f: with(func(f *flagValues) { f.duration = -time.Second }), want: "-duration -1s"},
		{f: with(func(f *flagValues) { f.duration = 0 }), want: "-duration 0s"},
		{f: with(func(f *flagValues) { f.duration = time.Millisecond })},
		{f: with(func(f *flagValues) { f.events = -3 }), want: "-events -3"},
		{f: with(func(f *flagValues) { f.events = 0 }), want: "-events 0"},
		{f: with(func(f *flagValues) { f.ctrlOutage = -time.Second }), want: "-ctrl-outage -1s"},
		{f: with(func(f *flagValues) { f.ctrlOutage = 0 }), want: "-ctrl-outage 0s"},
		{f: with(func(f *flagValues) { f.pace = 1 })},
		{f: with(func(f *flagValues) { f.pace = math.NaN() }), want: "-pace NaN"},
		{f: with(func(f *flagValues) { f.pace = -2 }), want: "-pace -2"},
		{f: with(func(f *flagValues) { f.pace = math.Inf(1) }), want: "-pace +Inf"},
		{f: with(func(f *flagValues) { f.slo = 100 * time.Millisecond })},
		{f: with(func(f *flagValues) { f.slo = -5 * time.Millisecond }), want: "-slo -5ms"},
		{f: with(func(f *flagValues) { f.hold = time.Second })},
		{f: with(func(f *flagValues) { f.hold = -time.Second }), want: "-hold -1s"},
		{f: with(func(f *flagValues) { f.servers = 3 }), want: "3 clients need 4 servers, have 3"},
		{f: with(func(f *flagValues) { f.clients = 99; f.servers = 110 }), want: "99 clients: the address plan holds 1 to 98"},
	} {
		err := validate(c.f)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%+v: unexpected error %v", c.f, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%+v: error %v, want one containing %q", c.f, err, c.want)
		}
	}
}
