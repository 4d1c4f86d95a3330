package nezha

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// orphanAllow lists exported identifiers under internal/ that nothing
// outside their own package's tests calls yet, each kept on purpose.
// A key names an identifier ("pkg.Name"), a method ("pkg.Type.Method")
// or a type together with its methods ("pkg.Type"). An entry that
// gains a caller or stops existing fails TestNoOrphanedExports, so the
// list cannot rot.
var orphanAllow = map[string]string{
	"baseline.SiriusPool":             "Sirius bucket rebalancing (MoveBucket, FlowDone) and the state it must transfer; ROADMAP item 6 checks the Sirius claims",
	"controller.Controller.OffloadTo": "§7.2 operator-chosen FE placement; ROADMAP item 12 feeds operator requests to the controller as events",
	"monitor.Monitor.ClearGuard":      "§C.2 manual release of the widespread-failure guard; ROADMAP item 12 feeds operator requests to the controller as events",
	"nic.BDFAllocator":                "§7.4 BDF limit on a VM's vNICs; ROADMAP item 15 bounds it as a resource edge",
	"nic.NewBDFAllocator":             "§7.4 BDF limit on a VM's vNICs; ROADMAP item 15 bounds it as a resource edge",
	"vswitch.VSwitch.PinFlow":         "§7.5 elephant-flow pinning; ROADMAP item 5 runs pinned elephants against the reference vSwitch",
	"vswitch.VSwitch.UnpinFlow":       "§7.5 elephant-flow pinning; ROADMAP item 5 runs pinned elephants against the reference vSwitch",
	"vswitch.VSwitch.SetBELocation":   "§7.2 BE relocation when an offloaded vNIC's VM migrates; ROADMAP item 27 turns it into a controller transaction",
	"vswitch.VSwitch.SetMirrorSink":   "traffic mirroring to a collector; ROADMAP item 5 runs mirror worlds against the reference vSwitch",
	"vswitch.VSwitch.SetRateLimit":    "VM-level rate limiting; ROADMAP item 5 runs QoS worlds against the reference vSwitch",
	"workload.NewSYNFlood":            "§7.3 SYN flood; ROADMAP item 15's FE table-full scenario drives it",
}

// ifaceMethods are method names the standard library calls through an
// interface (fmt.Stringer, error, container/heap, sort, math/rand,
// io, net/http, encoding/json): a method with one of these names is
// reachable without any selector naming it.
var ifaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Int63": true, "Seed": true, "Uint64": true,
	"Read": true, "Write": true, "Close": true, "ServeHTTP": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
}

// TestNoOrphanedExports fails on an exported top-level func, type,
// const, var or method under internal/ that nothing refers to outside
// its own package's _test.go files. Users are every other file in the
// tree: the package's own non-test code, other packages and their
// tests, cmd/, examples/ and the bench/ module (read as source, not
// built). References resolve by name: pkg.Name through the file's
// import of that package, a bare Name inside the package, and any
// .Name selector for methods, so a method stays live when some value
// anywhere calls a method of that name.
func TestNoOrphanedExports(t *testing.T) {
	orphans, declared, err := findOrphans(".")
	if err != nil {
		t.Fatal(err)
	}
	unlisted, stale := checkAllowList(orphans, declared, orphanAllow)
	for _, id := range unlisted {
		t.Errorf("%s: exported but used only by its own package's tests; delete it or add it to orphanAllow with a reason", id)
	}
	for _, s := range stale {
		t.Errorf("orphanAllow: %s", s)
	}
}

// TestOrphanGateControls runs the scan over a small tree with one
// identifier of each kind the gate must tell apart.
func TestOrphanGateControls(t *testing.T) {
	orphans, declared, err := findOrphans(filepath.Join("testdata", "orphans"))
	if err != nil {
		t.Fatal(err)
	}
	isOrphan := map[string]bool{}
	for _, o := range orphans {
		isOrphan[o] = true
	}
	for _, id := range []string{"lib.Planted", "lib.TestOnly", "lib.TestOnly.Method", "lib.Allowed"} {
		if !isOrphan[id] {
			t.Errorf("%s is used only by its own tests but was not flagged", id)
		}
	}
	for _, id := range []string{
		"lib.Node.String", "lib.Queue", "lib.Queue.Len", "lib.Queue.Push",
		"lib.BenchOnly", "lib.ExampleOnly", "lib.Used", "lib.Internal",
		"lib.Other.Called", "lib.Limit",
	} {
		if !declared[id] {
			t.Errorf("%s not declared: the control tree is out of step with this test", id)
		}
		if isOrphan[id] {
			t.Errorf("%s has a user but was flagged", id)
		}
	}

	unlisted, stale := checkAllowList(orphans, declared, map[string]string{
		"lib.Allowed":  "kept on purpose",
		"lib.TestOnly": "a type with its methods",
	})
	if len(stale) != 0 || strings.Join(unlisted, " ") != "lib.Planted" {
		t.Errorf("allow-list check: unlisted %v, stale %v; want only lib.Planted unlisted", unlisted, stale)
	}
	_, stale = checkAllowList(orphans, declared, map[string]string{
		"lib.Allowed":  "kept on purpose",
		"lib.Planted":  "kept on purpose",
		"lib.TestOnly": "a type with its methods",
		"lib.Used":     "has a caller now",
		"lib.Gone":     "no longer exists",
	})
	if len(stale) != 2 || !strings.Contains(stale[0], "lib.Gone") || !strings.Contains(stale[1], "lib.Used") {
		t.Errorf("stale entries not reported: %v", stale)
	}
}

// checkAllowList splits the scan's result into orphans the allow-list
// does not cover and allow-list entries that are stale: naming nothing
// declared, or covering nothing orphaned any more.
func checkAllowList(orphans []string, declared map[string]bool, allow map[string]string) (unlisted, stale []string) {
	covers := func(entry, id string) bool { return id == entry || strings.HasPrefix(id, entry+".") }
	used := map[string]bool{}
	for _, id := range orphans {
		listed := false
		for entry := range allow {
			if covers(entry, id) {
				listed, used[entry] = true, true
			}
		}
		if !listed {
			unlisted = append(unlisted, id)
		}
	}
	for entry := range allow {
		switch {
		case !declared[entry]:
			stale = append(stale, entry+" is not declared; remove the entry")
		case !used[entry]:
			stale = append(stale, entry+" is used now; remove the entry")
		}
	}
	sort.Strings(stale)
	return unlisted, stale
}

// srcFile is one parsed file with the package directory it lives in.
type srcFile struct {
	dir  string // slash path relative to the scan root
	name string // base file name
	test bool
	f    *ast.File
}

// findOrphans scans every .go file below root (skipping testdata and
// dot directories) and returns, sorted, the exported identifiers under
// internal/ whose only references are in their own package's _test.go
// files, plus the set of every exported identifier it saw. Names are
// "pkg.Name" or "pkg.Type.Method", pkg being the directory below
// internal/.
func findOrphans(root string) (orphans []string, declared map[string]bool, err error) {
	module, files, err := parseTree(root)
	if err != nil {
		return nil, nil, err
	}

	// Declarations: key -> (package dir, method name or "").
	type decl struct{ dir, method string }
	decls := map[string]decl{}
	for _, sf := range files {
		if sf.test || !strings.HasPrefix(sf.dir, "internal/") {
			continue
		}
		pkg := strings.TrimPrefix(sf.dir, "internal/")
		for _, d := range sf.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					decls[pkg+"."+d.Name.Name] = decl{dir: sf.dir}
				} else {
					decls[pkg+"."+recvName(d.Recv)+"."+d.Name.Name] = decl{dir: sf.dir, method: d.Name.Name}
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							decls[pkg+"."+s.Name.Name] = decl{dir: sf.dir}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								decls[pkg+"."+n.Name] = decl{dir: sf.dir}
							}
						}
					}
				}
			}
		}
	}

	// References that count: anything outside the owning package's
	// tests. named holds "dir.Name" for package-level names; selectors
	// maps a selector name to the dirs using it, "" for any file that
	// is not a test under internal/ (method calls resolve by name).
	named, selectors := map[string]bool{}, map[string]map[string]bool{}
	for _, sf := range files {
		imports := importDirs(sf.f, module)
		use := func(dir, name string) {
			if !sf.test || dir != sf.dir {
				named[dir+"."+name] = true
			}
		}
		selDir := ""
		if sf.test && strings.HasPrefix(sf.dir, "internal/") {
			selDir = sf.dir
		}
		for _, u := range declUnits(sf.f) {
			ast.Inspect(u.node, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok {
						if dir, ok := imports[x.Name]; ok {
							if dir != "" {
								use(dir, n.Sel.Name)
							}
							return false
						}
					}
					if selectors[n.Sel.Name] == nil {
						selectors[n.Sel.Name] = map[string]bool{}
					}
					selectors[n.Sel.Name][selDir] = true
				case *ast.Ident:
					if n.Name != u.self && !u.names[n] {
						use(sf.dir, n.Name)
					}
				}
				return true
			})
		}
	}

	declared = map[string]bool{}
	for key, d := range decls {
		declared[key] = true
		var live bool
		if d.method != "" {
			for dir := range selectors[d.method] {
				live = live || dir != d.dir
			}
			live = live || ifaceMethods[d.method]
		} else {
			live = named[d.dir+"."+key[strings.LastIndex(key, ".")+1:]]
		}
		if !live {
			orphans = append(orphans, key)
		}
	}
	sort.Strings(orphans)
	return orphans, declared, nil
}

// parseTree parses every .go file below root, skipping testdata and
// dot directories, and returns them with the module path from
// root/go.mod.
func parseTree(root string) (module string, files []srcFile, err error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", nil, err
	}
	module = strings.TrimSpace(strings.TrimPrefix(strings.SplitN(string(mod), "\n", 2)[0], "module"))

	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, filepath.Dir(path))
		files = append(files, srcFile{
			dir: filepath.ToSlash(rel), name: d.Name(), test: strings.HasSuffix(path, "_test.go"), f: f,
		})
		return nil
	})
	return module, files, err
}

// importDirs maps each of f's local import names to the imported
// package's directory below the module root, "" outside the module:
// pkg.Name is never a method or field selector.
func importDirs(f *ast.File, module string) map[string]string {
	imports := map[string]string{}
	for _, is := range f.Imports {
		path := strings.Trim(is.Path.Value, `"`)
		local := path[strings.LastIndex(path, "/")+1:]
		if is.Name != nil {
			local = is.Name.Name
		}
		imports[local] = ""
		if strings.HasPrefix(path, module+"/") {
			imports[local] = strings.TrimPrefix(path, module+"/")
		}
	}
	return imports
}

// recvName is the base type name of a method receiver.
func recvName(fl *ast.FieldList) string {
	t := fl.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// declUnit is a top-level declaration, or one spec of a grouped one,
// with the names it introduces: none of them is a use of itself.
type declUnit struct {
	node  ast.Node
	self  string // function, method receiver type, or declared type
	names map[*ast.Ident]bool
}

func declUnits(f *ast.File) []declUnit {
	var us []declUnit
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			self := d.Name.Name
			if d.Recv != nil {
				self = recvName(d.Recv)
			}
			us = append(us, declUnit{d, self, map[*ast.Ident]bool{d.Name: true}})
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					us = append(us, declUnit{s, s.Name.Name, nil})
				case *ast.ValueSpec:
					names := map[*ast.Ident]bool{}
					for _, n := range s.Names {
						names[n] = true
					}
					us = append(us, declUnit{s, "", names})
				}
			}
		}
	}
	return us
}
