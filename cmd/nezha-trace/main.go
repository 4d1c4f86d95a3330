// Command nezha-trace emits the synthetic region telemetry behind
// Figs 2–4, Table 1 and Fig 15 as CSV, for plotting with any tool.
//
// Usage:
//
//	nezha-trace -what cpu -n 10000 > cpu.csv
//	nezha-trace -what fig2 -n 2000 > vm_vs_vswitch.csv
//
// what: cpu | mem | fig2 | hotspots | usage-cps | usage-flows |
// usage-vnics | statesize | migration
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"nezha/internal/trace"
)

// datasets maps each -what to the function that writes its CSV: a
// header line, then rows drawn from r (n samples).
var datasets = map[string]func(w io.Writer, r *trace.Region, n int){
	"cpu": func(w io.Writer, r *trace.Region, n int) {
		fmt.Fprintln(w, "cpu_util_pct")
		for i := 0; i < n; i++ {
			fmt.Fprintf(w, "%.4f\n", r.VSwitchCPU()*100)
		}
	},
	"mem": func(w io.Writer, r *trace.Region, n int) {
		fmt.Fprintln(w, "mem_util_pct")
		for i := 0; i < n; i++ {
			fmt.Fprintf(w, "%.4f\n", r.VSwitchMem()*100)
		}
	},
	"fig2": func(w io.Writer, r *trace.Region, n int) {
		fmt.Fprintln(w, "vm_cpu_pct,vswitch_cpu_pct")
		for _, p := range r.HighCPSVMs(n) {
			fmt.Fprintf(w, "%.4f,%.4f\n", p.VMCPU*100, p.VSwitchCPU*100)
		}
	},
	"hotspots": func(w io.Writer, r *trace.Region, n int) {
		fmt.Fprintln(w, "cause,count")
		d := r.HotspotDistribution(n)
		for c := trace.OverloadCPS; c <= trace.OverloadVNICs; c++ {
			fmt.Fprintf(w, "%s,%d\n", c, d[c])
		}
	},
	"usage-cps":   usage(0),
	"usage-flows": usage(1),
	"usage-vnics": usage(2),
	"statesize": func(w io.Writer, r *trace.Region, n int) {
		h := r.StateSizes(n)
		fmt.Fprintln(w, "metric,bytes")
		fmt.Fprintf(w, "avg,%.2f\np50,%.2f\np99,%.2f\nmax,%.2f\n", h.Mean(), h.P50(), h.P99(), h.Max())
	},
	"migration": func(w io.Writer, r *trace.Region, n int) {
		fmt.Fprintln(w, "vcpus,mem_gb,downtime_ms,total_s")
		shapes := [][2]int{{4, 16}, {8, 32}, {16, 64}, {32, 128}, {64, 256}, {104, 512}, {104, 1024}}
		per := max(n/len(shapes), 1)
		for _, sh := range shapes {
			for i := 0; i < per; i++ {
				s := r.MigrationDowntime(sh[0], sh[1])
				fmt.Fprintf(w, "%d,%d,%.2f,%.2f\n", s.VCPUs, s.MemGB, s.DowntimeMS, s.TotalSec)
			}
		}
	},
}

// usage writes the normalized usage quantiles of one resource kind
// (0 CPS, 1 flows, 2 vNICs).
func usage(kind int) func(w io.Writer, r *trace.Region, n int) {
	return func(w io.Writer, r *trace.Region, n int) {
		h := r.UsageDistribution(kind, n)
		fmt.Fprintln(w, "quantile,normalized_pct")
		for _, q := range []float64{0.50, 0.90, 0.99, 0.999, 0.9999} {
			fmt.Fprintf(w, "%.4f,%.4f\n", q, 100*h.Quantile(q)/h.P9999())
		}
	}
}

// validate checks the invocation before anything is drawn: flag
// parsing stops at the first positional argument, so a stray one
// would silently drop every flag after it.
func validate(args []string, what string, n int) error {
	switch {
	case len(args) > 0:
		return fmt.Errorf("unexpected arguments %q (flags go first; there are no positional arguments)", args)
	case n <= 0:
		return fmt.Errorf("-n %d: need at least 1 sample", n)
	case datasets[what] == nil:
		names := make([]string, 0, len(datasets))
		for k := range datasets {
			names = append(names, k)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown -what %q, want one of %s", what, strings.Join(names, ", "))
	}
	return nil
}

func main() {
	var (
		what = flag.String("what", "cpu", "which dataset to emit")
		n    = flag.Int("n", 10000, "number of samples")
		seed = flag.Int64("seed", 42, "random seed")
	)
	flag.Parse()
	if err := validate(flag.Args(), *what, *n); err != nil {
		fmt.Fprintln(os.Stderr, "nezha-trace:", err)
		os.Exit(2)
	}
	datasets[*what](os.Stdout, trace.NewRegion(*seed, *n), *n)
}
