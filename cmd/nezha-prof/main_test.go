package main

import (
	"strings"
	"testing"

	"nezha/internal/prof"
)

func makeProfile(t *testing.T, hotCycles uint64) *prof.DecodedProfile {
	t.Helper()
	pr := prof.New()
	n := pr.Node("10.0.0.1", 1)
	n.Slot(1, prof.RoleLocal).Charge(prof.DirTX, prof.StageSlowpath, hotCycles)
	n.Slot(2, prof.RoleLocal).Charge(prof.DirTX, prof.StageFastpath, 100)
	n.Slot(2, prof.RoleLocal).MemAlloc(prof.CauseRuleTable, 512)
	raw, err := pr.ProfileBytes(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := prof.DecodeProfile(raw)
	if err != nil {
		t.Fatal(err)
	}
	return dp
}

func TestSampleIndexNames(t *testing.T) {
	dp := makeProfile(t, 1)
	if i := sampleIndex(dp, "cycles"); i != 0 {
		t.Fatalf("cycles index = %d, want 0", i)
	}
	if i := sampleIndex(dp, "bytes"); i != 1 {
		t.Fatalf("bytes index = %d, want 1", i)
	}
}

func TestValidate(t *testing.T) {
	for _, c := range []struct {
		cmd    string
		args   []string
		sample string
		want   string // "" = valid; else a substring of the error
	}{
		{cmd: "folded", args: []string{"a.pb.gz"}, sample: "cycles"},
		{cmd: "folded", args: []string{"a.pb.gz"}, sample: "bytes"},
		{cmd: "flame", args: []string{"a.pb.gz"}, sample: "cycles", want: `unknown subcommand "flame"`},
		{cmd: "top", args: []string{"a.pb.gz"}, sample: "cycles", want: `unknown subcommand "top"`},
		{cmd: "-sample", args: []string{"a.pb.gz"}, sample: "cycles", want: `unknown subcommand "-sample"`},
		{cmd: "folded", sample: "cycles", want: "folded wants 1 dump argument, got 0"},
		{cmd: "folded", args: []string{"a.pb.gz", "b.pb.gz"}, sample: "cycles", want: "folded wants 1 dump argument, got 2"},
		{cmd: "folded", args: []string{"a.pb.gz", "-sample", "bytes"}, sample: "cycles", want: `got 3 ["a.pb.gz" "-sample" "bytes"] (flags go before the dump)`},
		{cmd: "folded", args: []string{"a.pb.gz"}, sample: "cpu", want: `-sample "cpu": want cycles or bytes`},
		{cmd: "folded", args: []string{"a.pb.gz"}, sample: "", want: `-sample "": want cycles or bytes`},
	} {
		err := validate(c.cmd, c.args, c.sample)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%+v: unexpected error %v", c, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%+v: error %v, want one containing %q", c, err, c.want)
		}
	}
}
