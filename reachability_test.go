package sharebackup

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnly lists the exported functions under internal/ that no non-test
// file names, keyed package.Receiver.Name. Each entry says why it stays: the
// test that uses it as its reference oracle, or the paper section whose
// mechanism a reproducing test drives (DESIGN.md §4 names those tests).
var testOnly = map[string]string{
	"circuit.Switch.Fail":   "§5.1 circuit-switch failure — TestSyncCircuitRestoresAuthoritativeState, TestCircuitSwitchFailureThreshold",
	"circuit.Switch.Repair": "§5.1 circuit-switch repair — TestSyncCircuitRestoresAuthoritativeState",

	"controller.Controller.FlaggedHosts":            "§4.2 host-link failures — TestHostLinkFailurePolicy",
	"controller.Controller.HandleHostLinkFailure":   "§4.2 host-link failures — TestHostLinkFailurePolicy",
	"controller.Controller.ResumeAfterIntervention": "§5.1 halt on circuit-switch failure — TestCircuitSwitchFailureThreshold",

	"detect.NewLinkMonitor":          "§4.1 F10 link probing — TestDetectionToRecoveryPipeline",
	"detect.Monitor.Down":            "§4.1 F10 link probing — TestDetectionAfterMissThreshold",
	"detect.Config.WorstCaseLatency": "§4.1 detection budget — TestDetectionAfterMissThreshold",

	"failure.ExpectedConcurrent": "§5.1 availability arithmetic — TestExpectedConcurrent",

	"sbnet.Network.DeactivateIdleBackups": "§6 idle-backup augmentation — TestDeactivateIdleBackups",
	"sbnet.Network.SyncCircuit":           "§5.1 circuit-switch re-sync — TestSyncCircuitRestoresAuthoritativeState",
	"sbnet.Network.EdgeServingRack":       "oracle: which switch the circuits put behind a rack — TestReplaceEdge, TestEdgeServingRackSplitDetection",
	"sbnet.Network.TotalReconfigs":        "oracle: circuit reconfigurations per failover — TestTotalReconfigsAccounting",

	"topo.FatTree.EdgeOfHost":   "oracle: host numbering — TestFatTreeHostsOfEdge, TestDataPlaneDeliversAllPairs",
	"topo.Topology.NodesOfKind": "oracle: the built fabric counted by kind — TestFatTreeCounts",
	"topo.FatTree.ECMPPaths":    "oracle: full equal-cost enumeration — TestPathStoreDifferential, TestSelectMatchesFullSet",
	"topo.FatTree.HostsOfEdge":  "oracle: host numbering — TestFatTreeHostsOfEdge, TestSelectMatchesFullSet",
	"topo.Topology.Connected":   "oracle: reachability — TestQuickFatTreeSingleFailureKeepsFabricConnected, TestJellyfishConnected",
	"topo.Path.ContainsLink":    "oracle: a detour avoids the failed link — TestF10LocalRerouteLink, TestQuickMaxMinInvariants",
}

// viaInterface names methods the standard library calls through an
// interface (encoding/json, fmt, errors, sort, container/heap, io,
// net/http), which no caller names.
var viaInterface = map[string]bool{
	"MarshalJSON": true, "UnmarshalJSON": true, "String": true, "Error": true, "Unwrap": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Write": true, "Read": true, "Close": true, "ServeHTTP": true,
}

// TestNoTestOnlyExports keeps code that only tests reach from growing back:
// every exported function or method declared in a non-test file under
// internal/ must be named by some non-test file of the module or of
// benchmarks/, or be listed in testOnly with its reason. The check is by
// name, not by type, so it misses an export whose name some unrelated call
// also uses; composite-literal keys and field and parameter names do not
// count as uses. It is the cheap guard, not the audit.
func TestNoTestOnlyExports(t *testing.T) {
	fset, files := parseModule(t)
	declared := map[string]string{} // key -> position
	named := map[string]bool{}      // identifiers used outside declarations
	for path, f := range files {
		// Names that declare rather than use: functions, composite-literal
		// keys (failure.Scenario{Repair: …} names a field), and field and
		// parameter names.
		declNames := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declNames[fd.Name] = true
			if strings.HasPrefix(path, "internal/") && fd.Name.IsExported() {
				declared[funcKey(f.Name.Name, fd)] = fset.Position(fd.Pos()).String()
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							declNames[id] = true
						}
					}
				}
			case *ast.Field:
				for _, id := range n.Names {
					declNames[id] = true
				}
			case *ast.Ident:
				if !declNames[n] {
					named[n.Name] = true
				}
			}
			return true
		})
	}

	var unreached []string
	for key, pos := range declared {
		name := key[strings.LastIndex(key, ".")+1:]
		used := named[name] || viaInterface[name]
		_, listed := testOnly[key]
		switch {
		case !used && !listed:
			unreached = append(unreached, key+" ("+pos+")")
		case used && listed:
			t.Errorf("testOnly lists %s, but a non-test file now names it: drop the entry", key)
		}
	}
	for key := range testOnly {
		if _, ok := declared[key]; !ok {
			t.Errorf("testOnly lists %s, which no longer exists: drop the entry", key)
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("%s is named only by tests: delete it, or list it in testOnly with its oracle test or paper section", u)
	}
}

// unsetOK lists the exported config fields that no program sets, keyed
// package.Type.Field. Each entry says why the setting stays: the ROADMAP
// item that will vary it, or the test that needs it.
var unsetOK = map[string]string{
	"coflow.GenConfig.MapperLogMean":  "ROADMAP item 3's grid varies the trace marginals",
	"coflow.GenConfig.MapperLogStd":   "ROADMAP item 3's grid varies the trace marginals",
	"coflow.GenConfig.ReducerLogMean": "ROADMAP item 3's grid varies the trace marginals",
	"coflow.GenConfig.ReducerLogStd":  "ROADMAP item 3's grid varies the trace marginals",
	"coflow.GenConfig.SizeLogMeanMB":  "ROADMAP item 3's grid varies the trace marginals",
	"coflow.GenConfig.SizeLogStdMB":   "ROADMAP item 3's grid varies the trace marginals",
	"sharebackup.Fig1cConfig.Oversub": "ROADMAP item 3's grid varies the oversubscription",
	"detect.Config.Interval":          "ROADMAP item 13 wires detect into the agents",
	"detect.Config.MissThreshold":     "ROADMAP item 13 wires detect into the agents",
	"ctlplane.RaftConfig.Restore":     "ROADMAP item 9's restart needs it; TestClusterQuorumLossDrill drives it",
	"failure.AvailabilityConfig.MTBF": "the Monte Carlo tests raise unavailability until overflow is observable",
	"failure.AvailabilityConfig.MTTR": "the Monte Carlo tests raise unavailability until overflow is observable",
	"sweep.Config.Bus":                "tests give a sweep a private bus instead of obs.Default",
	"sweep.Config.Registry":           "tests give a sweep a private registry instead of obs.DefaultRegistry",
	"debughttp.Config.Registry":       "tests give a server a private registry instead of obs.DefaultRegistry",
	"ctlnet.ClusterConfig.Seed":       "ROADMAP item 1 replays a cluster from its seed",
}

// TestNoUnsetOptions keeps settings from outliving their callers: every
// exported field of an exported *Config struct declared in a non-test file of
// internal/ or the root package must be set by some non-test file outside
// examples/ (benchmarks/ counts), as a composite-literal key of that type or
// as an assignment, increment or address, or be listed in unsetOK with its
// reason. The config type's own methods do not count, nor does defaulting
// under a test of the same field (if c.F == 0 { c.F = … }). A setting every
// run leaves at its default is a constant.
func TestNoUnsetOptions(t *testing.T) {
	fset, files := parseModule(t)
	info := typeCheckModule(t, fset, files)

	declared := map[string]string{} // package.Type.Field -> position
	for path, f := range files {
		if strings.Contains(path, "/") && !strings.HasPrefix(path, "internal/") {
			continue
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !ts.Name.IsExported() || !strings.HasSuffix(ts.Name.Name, "Config") {
					continue
				}
				for _, field := range st.Fields.List {
					for _, id := range field.Names {
						if id.IsExported() {
							declared[f.Name.Name+"."+ts.Name.Name+"."+id.Name] = fset.Position(id.Pos()).String()
						}
					}
				}
			}
		}
	}

	set := map[string]bool{}
	for path, f := range files {
		if strings.HasPrefix(path, "examples/") {
			continue
		}
		for _, decl := range f.Decls {
			var own string // the config type whose method this is
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
				own = strings.TrimSuffix(funcKey(f.Name.Name, fd), "."+fd.Name.Name) + "."
			}
			record := func(key string) {
				if own == "" || !strings.HasPrefix(key, own) {
					set[key] = true
				}
			}
			var stack []ast.Node
			setField := func(e ast.Expr) {
				key := fieldKey(info, e)
				if key == "" {
					return
				}
				for _, n := range stack {
					if ifs, ok := n.(*ast.IfStmt); ok && mentions(info, ifs.Cond, key) {
						return // defaulting: if c.F == 0 { c.F = … }
					}
				}
				record(key)
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return false
				}
				stack = append(stack, n)
				switch n := n.(type) {
				case *ast.CompositeLit:
					named := namedOf(info.TypeOf(n))
					if named == nil {
						break
					}
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								record(typeKey(named) + "." + id.Name)
							}
						}
					}
				case *ast.AssignStmt:
					if n.Tok != token.DEFINE {
						for _, lhs := range n.Lhs {
							setField(lhs)
						}
					}
				case *ast.IncDecStmt:
					setField(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						setField(n.X)
					}
				}
				return true
			})
		}
	}

	var unset []string
	for key, pos := range declared {
		_, listed := unsetOK[key]
		switch {
		case !set[key] && !listed:
			unset = append(unset, key+" ("+pos+")")
		case set[key] && listed:
			t.Errorf("unsetOK lists %s, but a program now sets it: drop the entry", key)
		}
	}
	for key := range unsetOK {
		if _, ok := declared[key]; !ok {
			t.Errorf("unsetOK lists %s, which no longer exists: drop the entry", key)
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("%s is set by no program: make it a constant, delete it, or list it in unsetOK with its reason", u)
	}
	t.Logf("%d exported config fields, %d allowlisted as unset", len(declared), len(unsetOK))
}

// fieldKey is package.Type.Field when e selects a field of a named struct
// (through a pointer or not), else "".
func fieldKey(info *types.Info, e ast.Expr) string {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal || len(s.Index()) != 1 {
		return ""
	}
	named := namedOf(s.Recv())
	if named == nil {
		return ""
	}
	return typeKey(named) + "." + sel.Sel.Name
}

// namedOf is the named type typ is, or points to (nil for any other type).
func namedOf(typ types.Type) *types.Named {
	if ptr, ok := types.Unalias(typ).(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	named, _ := types.Unalias(typ).(*types.Named)
	return named
}

// mentions reports whether e selects the field key anywhere.
func mentions(info *types.Info, e ast.Expr, key string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && fieldKey(info, sel) == key {
			found = true
		}
		return !found
	})
	return found
}

// typeKey is package.Type.
func typeKey(named *types.Named) string {
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Name() + "." + obj.Name()
}

// typeCheckModule type-checks the module's and benchmarks/' non-test
// packages (examples/ aside) from the parsed files, importing the standard
// library from the export data one `go list -export` run reports.
func typeCheckModule(t *testing.T, fset *token.FileSet, files map[string]*ast.File) *types.Info {
	t.Helper()
	byPkg := map[string][]*ast.File{} // import path -> files
	std := map[string]bool{}
	for path, f := range files {
		if strings.HasPrefix(path, "examples/") {
			continue
		}
		pkg := "sharebackup"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir // benchmarks/ is its own module, sharebackup/benchmarks
		}
		byPkg[pkg] = append(byPkg[pkg], f)
		for _, im := range f.Imports {
			if p, _ := strconv.Unquote(im.Path.Value); p != "sharebackup" && !strings.HasPrefix(p, "sharebackup/") {
				std[p] = true
			}
		}
	}
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}}={{.Export}}"}
	for p := range std {
		args = append(args, p)
	}
	out, err := exec.Command("go", args...).Output()
	if ee, ok := err.(*exec.ExitError); ok {
		t.Fatalf("go list: %v\n%s", err, ee.Stderr)
	} else if err != nil {
		t.Fatalf("go list: %v", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		p, file, _ := strings.Cut(line, "=")
		exports[p] = file
	}
	m := &moduleImporter{
		fset:  fset,
		files: byPkg,
		pkgs:  map[string]*types.Package{},
		std: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			return os.Open(exports[path])
		}),
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	for pkg := range byPkg {
		if _, err := m.Import(pkg); err != nil {
			t.Fatalf("type-checking %s: %v", pkg, err)
		}
	}
	return m.info
}

// moduleImporter type-checks the module's packages from source, once each,
// into one shared types.Info.
type moduleImporter struct {
	fset  *token.FileSet
	files map[string][]*ast.File
	pkgs  map[string]*types.Package
	std   types.Importer
	info  *types.Info
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	files, ok := m.files[path]
	if !ok {
		return m.std.Import(path)
	}
	conf := types.Config{Importer: m}
	p, err := conf.Check(path, m.fset, files, m.info)
	m.pkgs[path] = p
	return p, err
}

// TestEveryEventKindIsEmitted keeps the event taxonomy honest: every
// obs.Kind constant must be the kind argument of some non-test NewEvent
// call, directly or through a function that forwards one of its parameters
// as NewEvent's kind (ctlplane's emitRole). A kind nothing emits is a row of
// DESIGN.md §8 that no trace can ever contain.
func TestEveryEventKindIsEmitted(t *testing.T) {
	_, files := parseModule(t)
	kinds := map[string]bool{} // declared obs.Kind constants -> emitted
	for path, f := range files {
		if !strings.HasPrefix(path, "internal/obs/") {
			continue
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST || len(gd.Specs) == 0 {
				continue
			}
			if typ, ok := gd.Specs[0].(*ast.ValueSpec).Type.(*ast.Ident); !ok || typ.Name != "Kind" {
				continue
			}
			for _, spec := range gd.Specs {
				for _, id := range spec.(*ast.ValueSpec).Names {
					if id.IsExported() {
						kinds[id.Name] = false
					}
				}
			}
		}
	}
	if len(kinds) == 0 {
		t.Fatal("found no obs.Kind constants")
	}

	// kindArg maps a callee name to the argument index that is an event kind:
	// NewEvent's first, and each forwarder's kind parameter.
	kindArg := map[string]int{"NewEvent": 0}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			params := map[string]int{}
			for _, field := range fd.Type.Params.List {
				for _, id := range field.Names {
					params[id.Name] = len(params)
				}
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && calleeName(call) == "NewEvent" && len(call.Args) > 0 {
					if id, ok := call.Args[0].(*ast.Ident); ok {
						if i, ok := params[id.Name]; ok {
							kindArg[fd.Name.Name] = i
						}
					}
				}
				return true
			})
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			i, ok := kindArg[calleeName(call)]
			if !ok || i >= len(call.Args) {
				return true
			}
			var name string
			switch arg := call.Args[i].(type) {
			case *ast.Ident:
				name = arg.Name
			case *ast.SelectorExpr:
				name = arg.Sel.Name
			}
			if _, ok := kinds[name]; ok {
				kinds[name] = true
			}
			return true
		})
	}
	var dead []string
	for name, emitted := range kinds {
		if !emitted {
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	for _, name := range dead {
		t.Errorf("obs.%s is the kind of no non-test NewEvent call: delete it, or emit it", name)
	}
}

// parseModule parses every non-test Go file of the module and of
// benchmarks/, keyed by slash-separated path.
func parseModule(t *testing.T) (*token.FileSet, map[string]*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files[filepath.ToSlash(path)] = f
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fset, files
}

// calleeName is the called function's or method's bare name ("" for other
// call forms).
func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// funcKey is package.Name or package.Receiver.Name.
func funcKey(pkg string, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return pkg + "." + fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if idx, ok := typ.(*ast.IndexExpr); ok {
		typ = idx.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return pkg + "." + id.Name + "." + fd.Name.Name
	}
	return pkg + "." + fd.Name.Name
}
