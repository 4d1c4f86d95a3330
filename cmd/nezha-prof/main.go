// Command nezha-prof inspects the pprof-encoded cycle/byte
// attribution profiles that a nezha-chaos replay (and the prof package
// generally) writes. The dumps are standard profile.proto, so
// `go tool pprof -http :8080 <dump>` works too; nezha-prof covers the
// cases that don't need the full pprof UI:
//
//	nezha-prof top [-n 20] [-sample cycles|bytes] dump.pb.gz
//	    rank attribution keys (the synthetic stacks) by value
//
//	nezha-prof diff [-sample cycles|bytes] old.pb.gz new.pb.gz
//	    per-key delta between two dumps — what a change made
//	    cheaper or dearer
//
//	nezha-prof folded [-sample cycles|bytes] dump.pb.gz
//	    root-first semicolon-joined stacks for flamegraph tools
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"nezha/internal/prof"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: nezha-prof <top|diff|folded> [-n 20] [-sample cycles|bytes] <dump.pb.gz> [dump2.pb.gz]")
	os.Exit(2)
}

// dumpArgs is each subcommand's number of dump arguments.
var dumpArgs = map[string]int{"top": 1, "diff": 2, "folded": 1}

// validate checks the subcommand and its parsed flags and arguments
// before any file is read.
func validate(cmd string, args []string, topN int, sample string) error {
	want, ok := dumpArgs[cmd]
	switch {
	case !ok:
		return fmt.Errorf("unknown subcommand %q: want top, diff or folded", cmd)
	case len(args) != want:
		return fmt.Errorf("%s wants %d dump argument(s), got %d %q (flags go before the dumps)", cmd, want, len(args), args)
	case topN < 1:
		return fmt.Errorf("-n %d: need at least 1 row", topN)
	case sample != "cycles" && sample != "bytes":
		return fmt.Errorf("-sample %q: want cycles or bytes", sample)
	}
	return nil
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	topN := fs.Int("n", 20, "rows to show")
	sample := fs.String("sample", "cycles", "sample type: cycles or bytes")
	fs.Parse(os.Args[2:])
	if err := validate(cmd, fs.Args(), *topN, *sample); err != nil {
		fmt.Fprintf(os.Stderr, "nezha-prof: %v\n", err)
		usage()
	}

	switch cmd {
	case "top":
		dp := load(fs.Arg(0))
		vi := sampleIndex(dp, *sample)
		rows := keyTotals(dp, vi)
		fmt.Printf("%s from %s (%d samples)\n", *sample, fs.Arg(0), len(dp.Samples))
		fmt.Printf("%16s %6s  %s\n", strings.ToUpper(*sample), "%", "KEY")
		var total int64
		for _, r := range rows {
			total += r.v
		}
		for i, r := range rows {
			if i == *topN {
				break
			}
			pct := 0.0
			if total > 0 {
				pct = float64(r.v) / float64(total) * 100
			}
			fmt.Printf("%16d %5.1f%%  %s\n", r.v, pct, r.key)
		}
	case "diff":
		a, b := load(fs.Arg(0)), load(fs.Arg(1))
		vi := sampleIndex(a, *sample)
		deltas := map[string]int64{}
		for _, r := range keyTotals(a, vi) {
			deltas[r.key] -= r.v
		}
		for _, r := range keyTotals(b, sampleIndex(b, *sample)) {
			deltas[r.key] += r.v
		}
		var rows []keyVal
		for k, d := range deltas {
			if d != 0 {
				rows = append(rows, keyVal{k, d})
			}
		}
		sort.Slice(rows, func(i, j int) bool {
			di, dj := rows[i].v, rows[j].v
			if di < 0 {
				di = -di
			}
			if dj < 0 {
				dj = -dj
			}
			if di != dj {
				return di > dj
			}
			return rows[i].key < rows[j].key
		})
		fmt.Printf("%s delta: %s -> %s\n", *sample, fs.Arg(0), fs.Arg(1))
		for i, r := range rows {
			if i == *topN {
				break
			}
			fmt.Printf("%+16d  %s\n", r.v, r.key)
		}
		if len(rows) == 0 {
			fmt.Println("no per-key differences")
		}
	case "folded":
		dp := load(fs.Arg(0))
		if err := dp.Folded(os.Stdout, sampleIndex(dp, *sample)); err != nil {
			fmt.Fprintf(os.Stderr, "nezha-prof: %v\n", err)
			os.Exit(1)
		}
	}
}

func load(path string) *prof.DecodedProfile {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nezha-prof: %v\n", err)
		os.Exit(1)
	}
	dp, err := prof.DecodeProfile(raw)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nezha-prof: %s: %v\n", path, err)
		os.Exit(1)
	}
	return dp
}

// sampleIndex maps a sample-type name ("cycles", "bytes") to its
// value index in the profile.
func sampleIndex(dp *prof.DecodedProfile, name string) int {
	for i, st := range dp.SampleTypes {
		if st == name+"/"+name || strings.HasPrefix(st, name+"/") {
			return i
		}
	}
	fmt.Fprintf(os.Stderr, "nezha-prof: no %q sample type in %v\n", name, dp.SampleTypes)
	os.Exit(1)
	return 0
}

type keyVal struct {
	key string
	v   int64
}

// keyTotals aggregates sample values by attribution key — the stack
// rendered root-first — sorted descending.
func keyTotals(dp *prof.DecodedProfile, vi int) []keyVal {
	totals := map[string]int64{}
	for _, s := range dp.Samples {
		if vi >= len(s.Values) || s.Values[vi] == 0 {
			continue
		}
		parts := make([]string, 0, len(s.Stack))
		for i := len(s.Stack) - 1; i >= 0; i-- {
			parts = append(parts, s.Stack[i])
		}
		totals[strings.Join(parts, ";")] += s.Values[vi]
	}
	rows := make([]keyVal, 0, len(totals))
	for k, v := range totals {
		rows = append(rows, keyVal{k, v})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].v != rows[j].v {
			return rows[i].v > rows[j].v
		}
		return rows[i].key < rows[j].key
	})
	return rows
}
