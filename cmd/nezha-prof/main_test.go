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

func TestKeyTotalsRanksAndRendersKeys(t *testing.T) {
	dp := makeProfile(t, 9000)
	rows := keyTotals(dp, sampleIndex(dp, "cycles"))
	if len(rows) != 2 {
		t.Fatalf("want 2 cycle keys, got %+v", rows)
	}
	if rows[0].v != 9000 || !strings.Contains(rows[0].key, "stage:slowpath") || !strings.Contains(rows[0].key, "vnic:1/local") {
		t.Fatalf("hot key wrong: %+v", rows[0])
	}
	if !strings.HasPrefix(rows[0].key, "node:10.0.0.1") {
		t.Fatalf("key not rendered root-first: %q", rows[0].key)
	}

	brows := keyTotals(dp, sampleIndex(dp, "bytes"))
	if len(brows) != 1 || brows[0].v != 512 || !strings.Contains(brows[0].key, "mem:rule-table") {
		t.Fatalf("byte keys wrong: %+v", brows)
	}
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
		n      int
		sample string
		want   string // "" = valid; else a substring of the error
	}{
		{cmd: "top", args: []string{"a.pb.gz"}, n: 20, sample: "cycles"},
		{cmd: "top", args: []string{"a.pb.gz"}, n: 1, sample: "bytes"},
		{cmd: "diff", args: []string{"a.pb.gz", "b.pb.gz"}, n: 20, sample: "cycles"},
		{cmd: "folded", args: []string{"a.pb.gz"}, n: 20, sample: "bytes"},
		{cmd: "flame", args: []string{"a.pb.gz"}, n: 20, sample: "cycles", want: `unknown subcommand "flame"`},
		{cmd: "-n", args: []string{"a.pb.gz"}, n: 20, sample: "cycles", want: `unknown subcommand "-n"`},
		{cmd: "top", n: 20, sample: "cycles", want: "top wants 1 dump argument(s), got 0"},
		{cmd: "top", args: []string{"a.pb.gz", "-n", "5"}, n: 20, sample: "cycles", want: `got 3 ["a.pb.gz" "-n" "5"] (flags go before the dumps)`},
		{cmd: "diff", args: []string{"a.pb.gz"}, n: 20, sample: "cycles", want: "diff wants 2 dump argument(s), got 1"},
		{cmd: "folded", args: []string{"a.pb.gz", "b.pb.gz"}, n: 20, sample: "cycles", want: "folded wants 1 dump argument(s), got 2"},
		{cmd: "top", args: []string{"a.pb.gz"}, n: 0, sample: "cycles", want: "-n 0: need at least 1 row"},
		{cmd: "diff", args: []string{"a.pb.gz", "b.pb.gz"}, n: -1, sample: "cycles", want: "-n -1: need at least 1 row"},
		{cmd: "top", args: []string{"a.pb.gz"}, n: 20, sample: "cpu", want: `-sample "cpu": want cycles or bytes`},
		{cmd: "folded", args: []string{"a.pb.gz"}, n: 20, sample: "", want: `-sample "": want cycles or bytes`},
	} {
		err := validate(c.cmd, c.args, c.n, c.sample)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%+v: unexpected error %v", c, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%+v: error %v, want one containing %q", c, err, c.want)
		}
	}
}
