package nezha

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// knobAllow lists exported config fields that no non-test caller
// sets, each kept on purpose. A key names a field ("pkg.Type.Field").
// The reasons that hold are a negative control, a value a named test
// shrinks, or an address. An entry that gains a setter or stops
// existing fails TestNoUnturnedKnobs, so the list cannot rot.
var knobAllow = map[string]string{
	"chaos.CampaignConfig.BypassTwoPhase":  "negative control: TestNoBlackholeNegativeControl proves the no-blackhole invariant fires without two-phase commit",
	"chaos.CampaignConfig.SkipReconcile":   "negative control: TestSkipReconcileNegativeControl proves the crash-recovery invariants fire without reconciliation",
	"controller.RecoverOpts.SkipReconcile": "negative control: chaos.CampaignConfig.SkipReconcile passes it through to Recover",
	"chaos.ScenarioConfig.ThrashProne":     "negative control: TestPolicyThrashNegativeControl proves the policy_thrash invariant fires",
	"chaos.ScenarioConfig.PeakCPS":         "TestPolicyThrashNegativeControl shrinks the peak to 250/s",
	"chaos.ScenarioConfig.Seed":            "TestPolicyGoldenDecisionLogs and TestPolicyScenarioSweep vary the scenario seed",
	"chaos.ScenarioConfig.Profile":         "TestPolicyGoldenDecisionLogs varies the load shape",
	"chaos.ScenarioConfig.Flaps":           "TestPolicyHysteresisProperty adds link flaps",
	"chaos.ScenarioConfig.CtrlCrashAt":     "TestCrashRecoveryDecisionLogSuffix crashes the controller mid-scenario",
	"chaos.ScenarioConfig.CtrlOutage":      "TestCrashRecoveryDecisionLogSuffix sets the outage it crashes the controller for",
	"controller.Config.RPCAddr":            "an address: the controller transport's fabric address",
	"controller.Config.GatewayAddr":        "an address: the gateway agent's fabric address",
	"monitor.Config.Addr":                  "an address: the monitor's fabric address",
	"obs.HistoryOptions.PolicyLines":       "TestHistorySideStores shrinks the decision-log tail to 2",
	"obs.HistoryOptions.Invariants":        "TestHistorySideStores shrinks the invariant tail to 2",
	"slo.Config.BurnWindow":                "TestBurnEvaluator shrinks the burn window to 1000 ns",
	"slo.Config.BurnThreshold":             "TestBurnEvaluator lowers the burn threshold",
	"slo.Config.DecayEvery":                "TestBurnEvaluator, TestDropsAreViolations and TestWorst turn sketch decay off",
}

// TestNoUnturnedKnobs fails on an exported field of an exported
// *Config, *Options, *Opts or *Spec struct under internal/ that no non-test
// file in internal/, cmd/, examples/ or bench/ sets. The field's own
// defaulting code does not count as a setter: a function named fill,
// defaults or Default*, an assignment guarded by a zero test of the
// same field, or a pass-through of a same-named field (CheckEvery:
// cfg.CheckEvery). A knob nobody turns is a constant: move it next to
// the code that reads it, or list it in knobAllow with a reason.
func TestNoUnturnedKnobs(t *testing.T) {
	unturned, fields, err := findUnturnedKnobs(".")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d exported config fields, %d allow-listed", len(fields), len(knobAllow))
	unlisted, stale := checkAllowList(unturned, fields, knobAllow)
	for _, id := range unlisted {
		t.Errorf("%s: no non-test caller sets it; make it a constant or add it to knobAllow with a reason", id)
	}
	for _, s := range stale {
		t.Errorf("knobAllow: %s", s)
	}
}

// TestKnobGateControls runs the scan over a small tree with one field
// of each kind the gate must tell apart.
func TestKnobGateControls(t *testing.T) {
	unturned, fields, err := findUnturnedKnobs(filepath.Join("testdata", "knobs"))
	if err != nil {
		t.Fatal(err)
	}
	isUnturned := map[string]bool{}
	for _, k := range unturned {
		isUnturned[k] = true
	}
	for _, id := range []string{
		"lib.Config.Planted",     // set only by its own fill
		"lib.Config.Guarded",     // set only under a zero guard outside fill
		"lib.Config.Passed",      // set only by a pass-through
		"lib.Config.TestOnly",    // set only by a test
		"lib.Options.Defaulted",  // set only by DefaultOptions
		"lib.Config.NegativeCtl", // allow-listed below
		"lib.Spec.Read",          // only read
	} {
		if !isUnturned[id] {
			t.Errorf("%s is set by no caller but was not flagged", id)
		}
	}
	for _, id := range []string{
		"lib.Config.FromCmd", "lib.Config.FromFlag", "lib.Config.FromExample",
		"lib.Config.FromBench", "lib.Config.Assigned", "lib.Config.Renamed",
		"lib.Options.Nested", "lib.Spec.Sized",
	} {
		if !fields[id] {
			t.Errorf("%s not declared: the control tree is out of step with this test", id)
		}
		if isUnturned[id] {
			t.Errorf("%s has a setter but was flagged", id)
		}
	}
	for _, id := range []string{"lib.Config.internal", "lib.Settings.Field", "lib.Settings.Planted", "lib.hiddenConfig.Field"} {
		if fields[id] {
			t.Errorf("%s is not an exported field of an exported config struct but was counted", id)
		}
	}

	allow := map[string]string{"lib.Config.NegativeCtl": "negative control"}
	unlisted, stale := checkAllowList(unturned, fields, allow)
	if len(stale) != 0 || len(unlisted) != 6 {
		t.Errorf("allow-list check: unlisted %v, stale %v; want six unlisted, none stale", unlisted, stale)
	}
	allow["lib.Config.FromCmd"] = "set by a caller now"
	allow["lib.Config.Gone"] = "no longer exists"
	_, stale = checkAllowList(unturned, fields, allow)
	if len(stale) != 2 || !strings.Contains(stale[0], "lib.Config.FromCmd") || !strings.Contains(stale[1], "lib.Config.Gone") {
		t.Errorf("stale entries not reported: %v", stale)
	}
}

// isKnobType reports whether a type name is one of the config structs
// the knob gate covers.
func isKnobType(name string) bool {
	return ast.IsExported(name) &&
		(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") ||
			strings.HasSuffix(name, "Opts") || strings.HasSuffix(name, "Spec"))
}

// isDefaulting reports whether a function is a config's own
// defaulting code, whose sets never count as a caller's.
func isDefaulting(name string) bool {
	return name == "fill" || name == "defaults" || strings.HasPrefix(name, "Default")
}

// findUnturnedKnobs scans every .go file below root (skipping testdata
// and dot directories) and returns, sorted, the exported fields of the
// exported config structs under internal/ that no non-test file in
// internal/, cmd/, examples/ or bench/ sets, plus the set of every
// such field it saw. Names are "pkg.Type.Field". A keyed composite
// literal of a named type sets that type's field; every other set (an
// assignment, ++/--, &x.Field, a literal of elided type) resolves by
// name and sets every config field of that name.
func findUnturnedKnobs(root string) (unturned []string, fields map[string]bool, err error) {
	module, files, err := parseTree(root)
	if err != nil {
		return nil, nil, err
	}

	// types maps "dir.Type" to the "pkg.Type" key of each config
	// struct; byName maps a field name to every key declaring it.
	fields, types, byName := map[string]bool{}, map[string]string{}, map[string][]string{}
	for _, sf := range files {
		if sf.test || !strings.HasPrefix(sf.dir, "internal/") {
			continue
		}
		pkg := strings.TrimPrefix(sf.dir, "internal/")
		for _, d := range sf.f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, s := range gd.Specs {
				ts, ok := s.(*ast.TypeSpec)
				if !ok || !isKnobType(ts.Name.Name) {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				typ := pkg + "." + ts.Name.Name
				types[sf.dir+"."+ts.Name.Name] = typ
				for _, fl := range st.Fields.List {
					for _, n := range fl.Names {
						if n.IsExported() {
							fields[typ+"."+n.Name] = true
							byName[n.Name] = append(byName[n.Name], typ+"."+n.Name)
						}
					}
				}
			}
		}
	}

	// A pass-through (CheckEvery: cfg.CheckEvery) sets a field only
	// once some other field of that name is set: passes maps each
	// field a pass-through copies into to its name.
	set, passes := map[string]bool{}, map[string]string{}
	setKeys := func(name string, keys []string, v ast.Expr) {
		sel, ok := v.(*ast.SelectorExpr)
		pass := ok && sel.Sel.Name == name
		for _, k := range keys {
			if pass {
				passes[k] = name
			} else {
				set[k] = true
			}
		}
	}
	for _, sf := range files {
		if sf.test || !settingDir(sf.dir) {
			continue
		}
		imports := importDirs(sf.f, module)
		setByName := func(sel *ast.SelectorExpr, v ast.Expr) {
			if x, ok := sel.X.(*ast.Ident); ok {
				if _, pkg := imports[x.Name]; pkg {
					return
				}
			}
			setKeys(sel.Sel.Name, byName[sel.Sel.Name], v)
		}
		// litType resolves a composite literal's type: the config key,
		// "" for a named type that is no config struct, or "?" when the
		// type is elided.
		litType := func(e ast.Expr) string {
			switch e := e.(type) {
			case nil:
				return "?"
			case *ast.Ident:
				return types[sf.dir+"."+e.Name]
			case *ast.SelectorExpr:
				if x, ok := e.X.(*ast.Ident); ok {
					if dir := imports[x.Name]; dir != "" {
						return types[dir+"."+e.Sel.Name]
					}
				}
			}
			return ""
		}
		for _, d := range sf.f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && isDefaulting(fd.Name.Name) {
				continue
			}
			guarded := zeroGuarded(d)
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						sel, ok := lhs.(*ast.SelectorExpr)
						if !ok || guarded[sel] {
							continue
						}
						var v ast.Expr
						if len(n.Rhs) == len(n.Lhs) {
							v = n.Rhs[i]
						}
						setByName(sel, v)
					}
				case *ast.IncDecStmt:
					if sel, ok := n.X.(*ast.SelectorExpr); ok {
						setByName(sel, nil)
					}
				case *ast.UnaryExpr:
					if sel, ok := n.X.(*ast.SelectorExpr); ok && n.Op == token.AND {
						setByName(sel, nil)
					}
				case *ast.CompositeLit:
					typ := litType(n.Type)
					if typ == "" {
						return true
					}
					for _, el := range n.Elts {
						kv, ok := el.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						key, ok := kv.Key.(*ast.Ident)
						if !ok {
							continue
						}
						keys := byName[key.Name]
						if typ != "?" {
							keys = []string{typ + "." + key.Name}
						}
						setKeys(key.Name, keys, kv.Value)
					}
				}
				return true
			})
		}
	}

	for changed := true; changed; {
		changed = false
		for k, name := range passes {
			for _, o := range byName[name] {
				if !set[k] && o != k && set[o] {
					set[k], changed = true, true
				}
			}
		}
	}

	for k := range fields {
		if !set[k] {
			unturned = append(unturned, k)
		}
	}
	sort.Strings(unturned)
	return unturned, fields, nil
}

// settingDir reports whether a package directory holds callers whose
// sets turn a knob.
func settingDir(dir string) bool {
	for _, p := range []string{"internal", "cmd", "examples", "bench"} {
		if dir == p || strings.HasPrefix(dir, p+"/") {
			return true
		}
	}
	return false
}

// zeroGuarded returns the field assignments in n that sit directly in
// the body of an if testing that same field against zero
// (if cfg.X <= 0 { cfg.X = d }): defaults, not a caller's choice.
func zeroGuarded(n ast.Node) map[*ast.SelectorExpr]bool {
	guarded := map[*ast.SelectorExpr]bool{}
	ast.Inspect(n, func(n ast.Node) bool {
		is, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		zero := map[string]bool{}
		ast.Inspect(is.Cond, func(c ast.Node) bool {
			b, ok := c.(*ast.BinaryExpr)
			if !ok || (b.Op != token.EQL && b.Op != token.LEQ) {
				return true
			}
			if sel, ok := b.X.(*ast.SelectorExpr); ok && isZero(b.Y) {
				zero[sel.Sel.Name] = true
			}
			return true
		})
		for _, st := range is.Body.List {
			as, ok := st.(*ast.AssignStmt)
			if !ok {
				continue
			}
			for _, lhs := range as.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok && zero[sel.Sel.Name] {
					guarded[sel] = true
				}
			}
		}
		return true
	})
	return guarded
}

// isZero reports whether e is a zero literal: 0, 0.0, "" or nil.
func isZero(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.BasicLit:
		return e.Value == "0" || e.Value == "0.0" || e.Value == `""`
	case *ast.Ident:
		return e.Name == "nil"
	}
	return false
}
