package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// compareFiles is the regression rule of the README, applied to two
// -json files (A the parent, B the change). For every workload ×
// end-to-end metric it prints both medians and quartiles, the change
// signed so that positive is worse, the metric's bound, and a verdict:
//
//	regressed   B's median is worse than A's by more than the bound
//	unresolved  A's own spread (q3 − q1) is wider than the bound
//	unchanged   otherwise
//
// A file holding several runs (one -json line each) is summarised over
// the runs' medians, which is how ten alternating pairs are compared; a
// file holding one run is summarised over that run's reps.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readRuns(pathA)
	if err != nil {
		return err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-17s %-17s %14s %14s %14s %14s %9s %8s  %s\n",
		"workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "worse by", "bound", "verdict")
	bad := 0
	for _, wl := range workloadNames {
		for i := range dictionary {
			m := &dictionary[i]
			if !m.endToEnd() || m.applies&workloadBit(wl) == 0 {
				continue
			}
			sa, oka := a.samples(wl, m.name)
			sb, okb := b.samples(wl, m.name)
			if !oka || !okb {
				continue
			}
			A, B := summarise(sa), summarise(sb)
			worse := B.Median - A.Median
			if m.higher {
				worse = -worse
			}
			// Absolute bounds print as they are, relative ones in percent
			// of A's median.
			bound, spread, unit := m.absBound, A.Q3-A.Q1, ""
			if bound == 0 {
				scale := 100 / math.Abs(A.Median)
				bound, worse, spread, unit = m.bound*100, worse*scale, spread*scale, "%"
			}
			verdict := "unchanged"
			switch {
			case spread > bound:
				verdict = "unresolved"
				bad++
			case worse > bound:
				verdict = "regressed"
				bad++
			}
			fmt.Fprintf(w, "%-17s %-17s %14.6g %6.4g..%-6.4g %14.6g %6.4g..%-6.4g %+8.2f%s %7.2f%s  %s\n",
				wl, m.name, A.Median, A.Q1, A.Q3, B.Median, B.Q1, B.Q3, worse, unit, bound, unit, verdict)
		}
	}
	fmt.Fprintf(w, "%d regressed or unresolved\n", bad)
	return nil
}

type runs []run

func readRuns(path string) (runs, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out runs
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 64<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r run
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return out, nil
}

// samples returns the values one metric took: each run's median when
// the file holds several runs, the reps of the run when it holds one.
func (rs runs) samples(workload, metric string) ([]float64, bool) {
	var out []float64
	for _, r := range rs {
		for _, res := range r.Workloads {
			s, ok := res.EndToEnd[metric]
			if res.Workload != workload || !ok {
				continue
			}
			if len(rs) == 1 && len(s.Reps) > 0 {
				return s.Reps, true
			}
			out = append(out, s.Median)
		}
	}
	return out, len(out) > 0
}
