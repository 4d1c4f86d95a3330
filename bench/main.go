// Command bench is the repository's benchmark: four fixed-work
// workloads against the exported APIs of internal/*, ten end-to-end
// metrics, a per-layer ledger and a traced run. bench/README.md is the
// metric dictionary; BENCHMARK.json at the repository root is the
// contract the driver checks.
//
// Usage (from the repository root):
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-json FILE] [-append]
//	bash bench/run.sh -compare A.jsonl B.jsonl
//
// With -workload the last line of standard output is the driver's
// result object; without it all four workloads run in turn.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

func newWorkload(name string) benchWorkload {
	switch name {
	case "crr_offload":
		return crrWorkload{}
	case "fastpath_burst":
		return &fastWorkload{}
	case "offloaded_steady":
		return &offWorkload{}
	case "chaos_campaign":
		return &chaosWorkload{}
	}
	return nil
}

// stamp identifies the machine and build a run came from.
type stamp struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func machineStamp() stamp {
	s := stamp{Commit: "unknown", Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		OS: runtime.GOOS, Arch: runtime.GOARCH}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				s.Commit = kv.Value
				if len(s.Commit) > 12 {
					s.Commit = s.Commit[:12]
				}
			case "vcs.modified":
				dirty = kv.Value == "true"
			}
		}
		if dirty {
			s.Commit += "+dirty"
		}
	}
	return s
}

// run is one invocation's record: what -json and -append write.
type run struct {
	Date      string    `json:"date"`
	Stamp     stamp     `json:"stamp"`
	Seed      int64     `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Workloads []*result `json:"workloads"`
}

// Where the command writes, relative to the repository root that
// run.sh starts it in.
const (
	traceDir    = "bench/out"
	historyPath = "bench/HISTORY.jsonl"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload and end with the driver's result line (default: all four)")
		seed         = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds      = flag.Float64("seconds", 20, "how long each workload measures")
		trace        = flag.Int("trace", 0, "1 adds the traced pass: seam spans, exported counters, isolated probes")
		jsonPath     = flag.String("json", "", "append this run as one JSON line to FILE, for -compare")
		appendHist   = flag.Bool("append", false, "append this run's end-to-end medians to "+historyPath)
		compare      = flag.Bool("compare", false, "compare two -json files: bench -compare A.jsonl B.jsonl")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two files, got %d", flag.NArg()))
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("need -seconds > 0"))
	}
	names := workloadNames
	if *workloadName != "" {
		if newWorkload(*workloadName) == nil {
			fatal(fmt.Errorf("unknown workload %q, want one of %s", *workloadName, strings.Join(workloadNames, ", ")))
		}
		names = []string{*workloadName}
	}

	rec := run{Date: time.Now().UTC().Format(time.RFC3339), Stamp: machineStamp(), Seed: *seed, Seconds: *seconds}
	fmt.Printf("# nezha benchmark: commit %s, %s, GOMAXPROCS %d, nproc %d, %s/%s; seed %d, %gs per workload, trace %d\n",
		rec.Stamp.Commit, rec.Stamp.Go, rec.Stamp.GOMAXPROCS, rec.Stamp.NProc, rec.Stamp.OS, rec.Stamp.Arch, *seed, *seconds, *trace)
	fmt.Println("# load is generated in virtual time, so generator lateness is 0 by construction; every workload is batch work to the host")
	for _, name := range names {
		res, err := runWorkload(newWorkload(name), runOptions{seed: *seed, seconds: *seconds, trace: *trace != 0, size: 1, outDir: traceDir})
		if err != nil {
			fatal(err)
		}
		printResult(os.Stdout, res)
		rec.Workloads = append(rec.Workloads, res)
	}
	if *jsonPath != "" {
		if err := appendJSONLine(*jsonPath, &rec); err != nil {
			fatal(err)
		}
	}
	if *appendHist {
		if err := appendJSONLine(historyPath, historyRow(&rec)); err != nil {
			fatal(err)
		}
	}
	if *workloadName != "" {
		if err := json.NewEncoder(os.Stdout).Encode(contractResult(rec.Workloads[0], *trace != 0)); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// printResult writes every metric of the dictionary as "name value
// unit"; host-time metrics add their quartiles and sample count.
func printResult(w io.Writer, res *result) {
	bit := workloadBit(res.Workload)
	fmt.Fprintf(w, "\n== %s: %d measured reps after 1 warm-up, counter digest %s, all output checks passed\n",
		res.Workload, res.Reps, res.Digest)
	for i := range dictionary {
		m := &dictionary[i]
		switch {
		case !m.endToEnd() && res.Layers == nil:
			continue
		case m.applies&bit == 0:
			fmt.Fprintf(w, "%s n/a %s\n", m.name, m.unit)
		case m.endToEnd():
			s := res.EndToEnd[m.name]
			fmt.Fprintf(w, "%s %s %s", m.name, num(s.Median), m.unit)
			switch {
			case len(s.Reps) > 0:
				fmt.Fprintf(w, "  # q1 %s q3 %s n %d", num(s.Q1), num(s.Q3), s.N)
			case strings.HasPrefix(m.name, "sim_lat"):
				fmt.Fprintf(w, "  # exact for the seed, %d samples", res.LatSamples)
			default:
				fmt.Fprint(w, "  # exact for the seed")
			}
			fmt.Fprintln(w)
		default:
			fmt.Fprintf(w, "%s %s %s", m.name, num(res.Layers[m.name]), m.unit)
			if a, ok := res.ProbeAlloc[m.name]; ok {
				fmt.Fprintf(w, "  # %.2f allocs/op", a)
			}
			fmt.Fprintln(w)
		}
	}
	if res.Layers != nil {
		fmt.Fprintf(w, "# unreachable through exported APIs, omitted: %s\n", strings.Join(unreachable, ", "))
		fmt.Fprintf(w, "# probes: median of %d samples of %s each; spans: %s\n", probeSamples, res.ProbeSample, res.TracePath)
	}
}

// num prints a measurement with all its digits.
func num(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// contractResult is the driver's result object: with trace off every
// end_to_end metric of BENCHMARK.json, with trace on every per_layer
// one — the dictionary's metrics that apply to all four workloads.
func contractResult(res *result, trace bool) any {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	for i := range dictionary {
		m := &dictionary[i]
		if m.applies != wAll || m.absBound != 0 || m.endToEnd() == trace {
			continue
		}
		v := res.Layers[m.name]
		if m.endToEnd() {
			v = res.EndToEnd[m.name].Median
		}
		metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	return struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{true, res.Attempted, res.Failed, metrics}
}

func appendJSONLine(path string, v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// historyRow is one line of bench/HISTORY.jsonl: commit, date, machine
// stamp and every end-to-end median per workload, so the trajectory
// lives in git.
func historyRow(r *run) any {
	type row struct {
		Commit    string            `json:"commit"`
		Date      string            `json:"date"`
		Stamp     stamp             `json:"stamp"`
		Seed      int64             `json:"seed"`
		Seconds   float64           `json:"seconds"`
		Workloads map[string]values `json:"workloads"`
	}
	out := row{Commit: r.Stamp.Commit, Date: r.Date, Stamp: r.Stamp, Seed: r.Seed, Seconds: r.Seconds, Workloads: map[string]values{}}
	for _, res := range r.Workloads {
		v := values{}
		for name, s := range res.EndToEnd {
			if !math.IsNaN(s.Median) {
				v[name] = s.Median
			}
		}
		out.Workloads[res.Workload] = v
	}
	return out
}
