// Command nezha-prof renders the pprof-encoded cycle/byte attribution
// profiles that a nezha-chaos replay (and the prof package generally)
// writes as folded stacks for flamegraph tools. The dumps are standard
// profile.proto, so `go tool pprof -top <dump>` ranks the attribution
// keys, `-diff_base old.pb.gz new.pb.gz` compares two dumps, and
// `-http :8080` opens the full UI:
//
//	nezha-prof folded [-sample cycles|bytes] dump.pb.gz
//	    root-first semicolon-joined stacks for flamegraph tools
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"nezha/internal/prof"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: nezha-prof folded [-sample cycles|bytes] <dump.pb.gz>")
	os.Exit(2)
}

// validate checks the subcommand and its parsed flags and arguments
// before any file is read.
func validate(cmd string, args []string, sample string) error {
	switch {
	case cmd != "folded":
		return fmt.Errorf("unknown subcommand %q: want folded (go tool pprof -top and -diff_base rank and compare dumps)", cmd)
	case len(args) != 1:
		return fmt.Errorf("%s wants 1 dump argument, got %d %q (flags go before the dump)", cmd, len(args), args)
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
	sample := fs.String("sample", "cycles", "sample type: cycles or bytes")
	fs.Parse(os.Args[2:])
	if err := validate(cmd, fs.Args(), *sample); err != nil {
		fmt.Fprintf(os.Stderr, "nezha-prof: %v\n", err)
		usage()
	}
	dp := load(fs.Arg(0))
	if err := dp.Folded(os.Stdout, sampleIndex(dp, *sample)); err != nil {
		fmt.Fprintf(os.Stderr, "nezha-prof: %v\n", err)
		os.Exit(1)
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
