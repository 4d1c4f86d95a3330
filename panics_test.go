package nezha

import (
	"fmt"
	"go/ast"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// panicAllow lists the functions under internal/ whose non-test code
// may call panic. A key names a file and the function enclosing the
// call ("internal/sim/sim.go:Loop.Schedule"), so moving a line does
// not stale it. Every reason starts with one of panicReasons: a
// tripwire that only simdebug builds compile, a guard against a
// programming error the function's contract rules out, or a site
// ROADMAP item 6 turns into a returned error. No input can reach
// one, so cmd/ has none: a command reports its errors and exits. An
// entry that stops naming a panic fails TestNoUnlistedPanics, so the
// list cannot rot.
var panicAllow = map[string]string{
	"internal/obs/registry.go:L":                                "programmer-error guard: an odd count of label strings",
	"internal/obs/registry.go:Registry.get":                     "programmer-error guard: one series registered under two kinds",
	"internal/sim/rand.go:NewZipf":                              "programmer-error guard: a Zipf sampler over no ranks",
	"internal/sim/rand.go:Rand.Intn":                            "programmer-error guard: Intn's documented n <= 0 panic, as math/rand's",
	"internal/sim/sched.go:calendarQueue.popLE":                 "programmer-error guard: the occupancy bitmap lost a set bit the wheel count promises",
	"internal/sim/sim.go:Loop.At":                               "programmer-error guard: a nil event function",
	"internal/sim/sim.go:Loop.AtTask":                           "programmer-error guard: a nil task",
	"internal/sim/sim.go:Loop.EveryTask":                        "programmer-error guard: a non-positive ticker period",
	"internal/sim/sim.go:Loop.Observe":                          "programmer-error guard: a nil observer",
	"internal/flowcache/debug_on.go:checkLive":                  "simdebug tripwire: an entry used after delete",
	"internal/flowcache/debug_on.go:checkNone":                  "simdebug tripwire: the zero pre-actions or state written through Pre or State",
	"internal/flowcache/debug_on.go:checkPre":                   "simdebug tripwire: pre-actions read after release, or interned ones written",
	"internal/flowcache/debug_on.go:checkState":                 "simdebug tripwire: session state read after its slot was released",
	"internal/flowcache/debug_on.go:checkKey":                   "simdebug tripwire: an entry created under another vNIC or hash than its key's",
	"internal/packet/pooldebug_on.go:poolCheckGet":              "simdebug tripwire: a free-list entry not marked free",
	"internal/packet/pooldebug_on.go:poolCheckLive":             "simdebug tripwire: a packet used after release",
	"internal/packet/pooldebug_on.go:poolCheckRelease":          "simdebug tripwire: a packet released twice",
	"internal/vswitch/viewdebug_on.go:viewDebugState.checkLive": "simdebug tripwire: a pooled box, task or run used after recycle",
	"internal/vswitch/viewdebug_on.go:viewDebugState.markFree":  "simdebug tripwire: a pooled box, task or run freed twice",
	"internal/vswitch/viewdebug_on.go:viewDebugState.markLive":  "simdebug tripwire: a pooled box, task or run acquired while live",
	"internal/experiments/ablation.go:measureNotifyRate":        "ROADMAP item 6 removes: its setup errors become returned errors",
	"internal/experiments/ablation.go:runOverhead":              "ROADMAP item 6 removes: its setup errors become returned errors",
	"internal/experiments/b1.go:runB1":                          "ROADMAP item 6 removes: its setup errors become returned errors",
	"internal/experiments/fig10_12.go:fig12Point":               "ROADMAP item 6 removes: its setup errors become returned errors",
	"internal/experiments/fig10_12.go:runFig10":                 "ROADMAP item 6 removes: its setup errors become returned errors",
	"internal/experiments/fig9.go:fig9CPS":                      "ROADMAP item 6 removes: its setup errors become returned errors",
	"internal/experiments/fig9.go:fig9Flows":                    "ROADMAP item 6 removes: its setup errors become returned errors",
	"internal/experiments/region.go:runRegionOnce":              "ROADMAP item 6 removes: its setup errors become returned errors",
	"internal/experiments/rig.go:newRig":                        "ROADMAP item 6 removes: its setup errors become returned errors",
	"internal/experiments/table3.go:table3CPS":                  "ROADMAP item 6 removes: its setup errors become returned errors",
	"internal/experiments/table4_fig13_14.go:runFig14":          "ROADMAP item 6 removes: its setup errors become returned errors",
	"internal/experiments/table4_fig13_14.go:runTable4":         "ROADMAP item 6 removes: its setup errors become returned errors",
}

// panicReasons are the reasons a panic may stay.
var panicReasons = []string{"simdebug tripwire: ", "programmer-error guard: ", "ROADMAP item 6 removes: "}

// TestNoUnlistedPanics fails on a panic call in non-test code under
// internal/ or cmd/ whose file and function panicAllow does not list,
// on an entry that lists none, on an entry with no reason from
// panicReasons, and on any entry under cmd/.
func TestNoUnlistedPanics(t *testing.T) {
	sites, err := findPanics(".")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d functions panic, %d allow-listed", len(sites), len(panicAllow))
	for _, msg := range checkPanicAllowList(sites, panicAllow) {
		t.Error(msg)
	}
}

// TestPanicGateControls runs the scan over a small tree with one panic
// of each kind the gate must tell apart.
func TestPanicGateControls(t *testing.T) {
	sites, err := findPanics(filepath.Join("testdata", "panics"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		"cmd/tool/main.go:main":             1,
		"internal/lib/lib.go:Guard":         2,
		"internal/lib/lib.go:Ring.Push":     1,
		"internal/lib/lib.go:Planted":       1,
		"internal/lib/lib.go:var table":     1,
		"internal/lib/debug_on.go:mustLive": 1,
	}
	if len(sites) != len(want) {
		t.Errorf("found %v, want %v", sites, want)
	}
	for key, n := range want {
		if sites[key] != n {
			t.Errorf("%s: %d panics found, want %d", key, sites[key], n)
		}
	}

	msgs := checkPanicAllowList(sites, map[string]string{
		"internal/lib/lib.go:Guard":         "programmer-error guard: nil argument",
		"internal/lib/lib.go:Ring.Push":     "it seemed fine",
		"internal/lib/lib.go:var table":     "programmer-error guard: table built wrong",
		"internal/lib/debug_on.go:mustLive": "simdebug tripwire: use after free",
		"internal/lib/lib.go:Gone":          "programmer-error guard: no longer panics",
		"cmd/tool/main.go:main":             "programmer-error guard: a command may not",
	})
	wantMsgs := []string{
		"cmd/tool/main.go:main: cmd/ allows no panic; report the error and exit",
		"internal/lib/lib.go:Gone: lists no panic; remove the entry",
		"internal/lib/lib.go:Planted: 1 panic call(s) not in panicAllow; return an error, or list it with a reason",
		fmt.Sprintf("internal/lib/lib.go:Ring.Push: reason %q starts with none of %q", "it seemed fine", panicReasons),
	}
	if strings.Join(msgs, "\n") != strings.Join(wantMsgs, "\n") {
		t.Errorf("allow-list check reported\n%s\nwant\n%s", strings.Join(msgs, "\n"), strings.Join(wantMsgs, "\n"))
	}
}

// checkPanicAllowList returns, sorted, one message per site under
// cmd/, per other site the allow-list does not list, per entry that
// lists no site, and per entry whose reason is not one of
// panicReasons.
func checkPanicAllowList(sites map[string]int, allow map[string]string) []string {
	var msgs []string
	for key, n := range sites {
		switch _, listed := allow[key]; {
		case strings.HasPrefix(key, "cmd/"):
			msgs = append(msgs, key+": cmd/ allows no panic; report the error and exit")
		case !listed:
			msgs = append(msgs, fmt.Sprintf("%s: %d panic call(s) not in panicAllow; return an error, or list it with a reason", key, n))
		}
	}
	for key, reason := range allow {
		switch {
		case sites[key] == 0:
			msgs = append(msgs, key+": lists no panic; remove the entry")
		case !slices.ContainsFunc(panicReasons, func(p string) bool { return strings.HasPrefix(reason, p) }):
			msgs = append(msgs, fmt.Sprintf("%s: reason %q starts with none of %q", key, reason, panicReasons))
		}
	}
	sort.Strings(msgs)
	return msgs
}

// findPanics counts the panic calls in non-test files under internal/
// and cmd/ below root, keyed by "dir/file.go:Func" — Func being the
// enclosing top-level function, "Type.Method" for a method, or "var
// name" for a package-level initializer.
func findPanics(root string) (map[string]int, error) {
	_, files, err := parseTree(root)
	if err != nil {
		return nil, err
	}
	sites := map[string]int{}
	for _, sf := range files {
		if sf.test || !(strings.HasPrefix(sf.dir, "internal/") || strings.HasPrefix(sf.dir, "cmd/")) {
			continue
		}
		count := func(fn string, n ast.Node) {
			ast.Inspect(n, func(n ast.Node) bool {
				if c, ok := n.(*ast.CallExpr); ok {
					if id, ok := c.Fun.(*ast.Ident); ok && id.Name == "panic" {
						sites[sf.dir+"/"+sf.name+":"+fn]++
					}
				}
				return true
			})
		}
		for _, d := range sf.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				fn := d.Name.Name
				if d.Recv != nil {
					fn = recvName(d.Recv) + "." + fn
				}
				count(fn, d)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					if vs, ok := s.(*ast.ValueSpec); ok {
						count("var "+vs.Names[0].Name, vs)
					}
				}
			}
		}
	}
	return sites, nil
}
