package sharebackup

import (
	"go/ast"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
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
	"detect.LinkMonitor.Advance":     "§4.1 F10 link probing — TestDetectionToRecoveryPipeline",
	"detect.Monitor.Down":            "§4.1 F10 link probing — TestDetectionAfterMissThreshold",
	"detect.Monitor.Reset":           "§4.1 F10 link probing, re-armed after a repair — TestDetectionAfterMissThreshold",
	"detect.Config.WorstCaseLatency": "§4.1 detection budget — TestDetectionAfterMissThreshold",

	"failure.ExpectedConcurrent": "§5.1 availability arithmetic — TestExpectedConcurrent",
	"failure.Unavailability":     "§5.1 availability arithmetic — TestUnavailability",

	"sbnet.Network.SyncCircuit":     "§5.1 circuit-switch re-sync — TestSyncCircuitRestoresAuthoritativeState",
	"sbnet.Network.EdgeServingRack": "oracle: which switch the circuits put behind a rack — TestReplaceEdge, TestEdgeServingRackSplitDetection",
	"sbnet.Network.TotalReconfigs":  "oracle: circuit reconfigurations per failover — TestTotalReconfigsAccounting",

	"topo.FatTree.EdgeOfHost":   "oracle: host numbering — TestFatTreeHostsOfEdge, TestDataPlaneDeliversAllPairs",
	"topo.FatTree.Host":         "oracle: host numbering — TestFatTreeHostsOfEdge, TestECMPPathCounts, TestPathStoreConcurrent",
	"topo.Topology.NodesOfKind": "oracle: the built fabric counted by kind — TestFatTreeCounts",
	"topo.FatTree.ECMPPaths":    "oracle: full equal-cost enumeration — TestPathStoreDifferential, TestSelectMatchesFullSet",
	"topo.FatTree.HostsOfEdge":  "oracle: host numbering — TestFatTreeHostsOfEdge, TestSelectMatchesFullSet",
	"topo.Topology.Connected":   "oracle: reachability — TestQuickFatTreeSingleFailureKeepsFabricConnected, TestJellyfishConnected",
	"topo.Path.ContainsLink":    "oracle: a detour avoids the failed link — TestF10LocalRerouteLink, TestQuickMaxMinInvariants",
	"topo.Path.Contains":        "oracle: a detour avoids the failed switch — TestGlobalOptimalReroute, TestF10LocalRerouteSrcSideFailure, TestInternedPathInvariants",
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
// internal/ must be used by some non-test file of the module or of
// benchmarks/, or be listed in testOnly with its reason. Uses are resolved
// by go/types, so a field, a parameter or an unrelated method of the same
// name is no use. A method counts as used when a call through a module
// interface it implements is, or when the standard library calls it by a
// viaInterface name.
func TestNoTestOnlyExports(t *testing.T) {
	fset, files := parseModule(t)
	info := typeCheckModule(t, fset, files)
	declared := map[*types.Func]string{} // declared export -> key
	positions := map[string]string{}     // key -> position
	for path, f := range files {
		if !strings.HasPrefix(path, "internal/") {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.IsExported() {
				key := funcKey(f.Name.Name, fd)
				declared[info.Defs[fd.Name].(*types.Func)] = key
				positions[key] = fset.Position(fd.Pos()).String()
			}
		}
	}
	used := map[*types.Func]bool{}
	var viaIface []*types.Func // interface methods the module calls
	for _, obj := range info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		used[fn] = true
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			viaIface = append(viaIface, fn)
		}
	}
	implementsUsed := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		typ := recv.Type()
		if ptr, ok := typ.(*types.Pointer); ok {
			typ = ptr.Elem()
		}
		for _, m := range viaIface {
			iface, _ := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if m.Name() == fn.Name() && iface != nil && types.Implements(types.NewPointer(typ), iface) {
				return true
			}
		}
		return false
	}

	var unreached []string
	keys := map[string]bool{}
	for fn, key := range declared {
		keys[key] = true
		reached := used[fn] || viaInterface[fn.Name()] || implementsUsed(fn)
		_, listed := testOnly[key]
		switch {
		case !reached && !listed:
			unreached = append(unreached, key+" ("+positions[key]+")")
		case reached && listed:
			t.Errorf("testOnly lists %s, but a non-test file now uses it: drop the entry", key)
		}
	}
	for key := range testOnly {
		if !keys[key] {
			t.Errorf("testOnly lists %s, which no longer exists: drop the entry", key)
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("%s is used only by tests: delete it, or list it in testOnly with its oracle test or paper section", u)
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
	"ctlnet.ClusterConfig.Seed":       "TestBubbleSeedSweep (ctlnet, GOEXPERIMENT=synctest) runs the leader-kill drill over seeds 1-100",
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

// unreadOK lists the registered metric names nothing reads. Each entry says
// why the metric stays.
var unreadOK = map[string]string{}

// readMethods are the metric handles' read accessors.
var readMethods = map[string]bool{
	"Value": true, "Count": true, "Sum": true, "Quantile": true,
	"Min": true, "Max": true, "Mean": true, "Snapshot": true,
}

// writeMethods are the metric handles' update methods.
var writeMethods = map[string]bool{"Inc": true, "Add": true, "Set": true, "Record": true}

// TestNoUnreadMetrics keeps the registry to metrics something reads: every
// name a non-test file registers through Registry.Counter, Gauge or Histogram
// (a fmt.Sprintf format is the name) must have a reader, or be listed in
// unreadOK with its reason. A reader is a Go file — program, benchmark or
// test — that quotes the name and does not itself register it (a test that
// writes the name onto its own registry is a fixture), or a read method
// (Value, Count, Quantile, …) called on the field or variable a handle is
// stored in (tel.Stalls.Value()). A registration read on the spot
// (reg.Counter("…").Value()) reads. The generic exporters, /varz and
// /metricsz, read every name and so count for none. Like
// TestNoTestOnlyExports the check is by name, not by type.
func TestNoUnreadMetrics(t *testing.T) {
	m := collectMetrics(t)
	var unread []string
	for name, regs := range m.registered {
		read := false
		for path := range m.quoted[name] {
			read = read || !m.writers[name][path]
		}
		for _, r := range regs {
			read = read || r.handle != "" && m.readHandles[r.handle]
		}
		_, listed := unreadOK[name]
		switch {
		case !read && !listed:
			unread = append(unread, name+" ("+regs[0].pos+")")
		case read && listed:
			t.Errorf("unreadOK lists %s, but something now reads it: drop the entry", name)
		}
	}
	for name := range unreadOK {
		if _, ok := m.registered[name]; !ok {
			t.Errorf("unreadOK lists %s, which nothing registers: drop the entry", name)
		}
	}
	sort.Strings(unread)
	for _, u := range unread {
		t.Errorf("metric %s has no reader: delete it, test the behaviour it counts, or list it in unreadOK with its reason", u)
	}
	t.Logf("%d registered metric names, %d allowlisted as unread", len(m.registered), len(unreadOK))
}

// docMetricName matches a backquoted lower-case metric name under one of the
// registry's prefixes.
var docMetricName = regexp.MustCompile("`((?:controller|ctlnet|ctlplane|fluid|obs|sweep|slo|debughttp)\\.[a-z][a-z0-9_.%]*)`")

// TestDocsNameRegisteredMetrics keeps the docs from naming a metric that is
// gone: every backquoted lower-case name under a registry prefix in DESIGN.md
// and README.md must be registered by a non-test file or be a benchmark
// metric of benchmarks/catalog.go. File names (*.go) are skipped.
// EXPERIMENTS.md is exempt: its audit tables name deleted code on purpose.
func TestDocsNameRegisteredMetrics(t *testing.T) {
	m := collectMetrics(t)
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, match := range docMetricName.FindAllStringSubmatch(line, -1) {
				name := match[1]
				if strings.HasSuffix(name, ".go") || m.registered[name] != nil || m.quoted[name]["benchmarks/catalog.go"] {
					continue
				}
				t.Errorf("%s:%d names metric %s, which nothing registers and the benchmark does not report", doc, i+1, name)
			}
		}
	}
}

// metricRegistration is one non-test Registry.Counter/Gauge/Histogram call.
type metricRegistration struct {
	pos    string
	handle string // handleKey of the field or variable the handle is stored in
}

// moduleMetrics is what the module's Go files do with metric names.
type moduleMetrics struct {
	registered  map[string][]metricRegistration // name -> its non-test registrations
	writers     map[string]map[string]bool      // name -> files that register it
	quoted      map[string]map[string]bool      // string literal -> files that quote it
	readHandles map[string]bool                 // handleKeys a read method is called on
}

// collectMetrics scans every Go file of the module and of benchmarks/, tests
// included, for metric registrations, quoted strings and handle reads. A
// non-test file that registers a name writes it; a test file writes it only
// if it calls Inc, Add, Set or Record on the registration or on the variable
// holding it. It fails by position on a non-test registration whose name is
// neither a constant string nor a fmt.Sprintf of one.
func collectMetrics(t *testing.T) moduleMetrics {
	t.Helper()
	fset, files := parseModule(t)
	info := typeCheckModule(t, fset, files)
	for path, f := range parseGoFiles(t, fset, true) {
		if path != "reachability_test.go" { // its allowlist quotes unread names
			files[path] = f
		}
	}
	m := moduleMetrics{
		registered:  map[string][]metricRegistration{},
		writers:     map[string]map[string]bool{},
		quoted:      map[string]map[string]bool{},
		readHandles: map[string]bool{},
	}
	mark := func(set map[string]map[string]bool, key, path string) {
		if set[key] == nil {
			set[key] = map[string]bool{}
		}
		set[key][path] = true
	}
	for path, f := range files {
		test := strings.HasSuffix(path, "_test.go")
		written := map[string]bool{}    // handleKeys this file writes through
		stored := map[string][]string{} // handleKey -> names this file stores in it
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return false
			}
			var parent ast.Node
			if len(stack) > 0 {
				parent = stack[len(stack)-1]
			}
			stack = append(stack, n)
			switch n := n.(type) {
			case *ast.BasicLit:
				if s, err := strconv.Unquote(n.Value); n.Kind == token.STRING && err == nil {
					mark(m.quoted, s, path)
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					break
				}
				switch h := handleKey(path, sel.X); {
				case h == "":
				case readMethods[sel.Sel.Name]:
					m.readHandles[h] = true
				case writeMethods[sel.Sel.Name]:
					written[h] = true
				}
				if !isRegistration(info, sel, len(n.Args)) {
					break
				}
				name, ok := metricName(info, n.Args[0])
				if !ok {
					if !test {
						t.Errorf("%s: metric name is neither a constant string nor a fmt.Sprintf of one", fset.Position(n.Pos()))
					}
					break
				}
				onSpot := ""
				if ps, ok := parent.(*ast.SelectorExpr); ok {
					onSpot = ps.Sel.Name
				}
				handle := storedIn(path, parent, n)
				switch {
				case readMethods[onSpot]:
				case !test:
					mark(m.writers, name, path)
					r := metricRegistration{pos: fset.Position(n.Pos()).String(), handle: handle}
					m.registered[name] = append(m.registered[name], r)
				case writeMethods[onSpot]:
					mark(m.writers, name, path)
				case handle != "":
					stored[handle] = append(stored[handle], name)
				}
			}
			return true
		})
		for handle, names := range stored {
			for _, name := range names {
				if written[handle] { // a fixture writing through a variable
					mark(m.writers, name, path)
				}
			}
		}
	}
	return m
}

// isRegistration reports whether sel, called with nargs arguments, is
// Registry.Counter, Gauge or Histogram. Test files are not type-checked;
// there the method name and one argument decide.
func isRegistration(info *types.Info, sel *ast.SelectorExpr, nargs int) bool {
	switch sel.Sel.Name {
	case "Counter", "Gauge", "Histogram":
	default:
		return false
	}
	if s := info.Selections[sel]; s != nil {
		named := namedOf(s.Recv())
		return named != nil && typeKey(named) == "obs.Registry"
	}
	return nargs == 1
}

// metricName is the name a registration's argument gives: a constant
// string, or the format of a fmt.Sprintf call.
func metricName(info *types.Info, e ast.Expr) (string, bool) {
	if tv := info.Types[e]; tv.Value != nil && tv.Value.Kind() == constant.String {
		return constant.StringVal(tv.Value), true
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.BasicLit:
		s, err := strconv.Unquote(e.Value)
		return s, e.Kind == token.STRING && err == nil
	case *ast.CallExpr:
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Sprintf" && len(e.Args) > 0 {
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "fmt" {
				return metricName(info, e.Args[0])
			}
		}
	}
	return "", false
}

// handleKey names the handle e holds: ".f" for a field f, wherever it is
// selected, and "path:v" for a variable v of the file at path.
func handleKey(path string, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return path + ":" + e.Name
	case *ast.SelectorExpr:
		return "." + e.Sel.Name
	}
	return ""
}

// storedIn is the handleKey of the field or variable a call's result is
// stored in: a composite-literal key, an assignment's or a declaration's
// left-hand side ("" if none).
func storedIn(path string, parent ast.Node, call ast.Expr) string {
	switch p := parent.(type) {
	case *ast.KeyValueExpr:
		if id, ok := p.Key.(*ast.Ident); ok {
			return "." + id.Name
		}
	case *ast.AssignStmt:
		for i, rhs := range p.Rhs {
			if rhs == call && i < len(p.Lhs) {
				return handleKey(path, p.Lhs[i])
			}
		}
	case *ast.ValueSpec:
		for i, v := range p.Values {
			if v == call && i < len(p.Names) {
				return handleKey(path, p.Names[i])
			}
		}
	}
	return ""
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

// typeCheckModule type-checks the module's, examples/' and benchmarks/'
// non-test packages from the parsed files, importing the standard library
// from the export data one `go list -export` run reports.
func typeCheckModule(t *testing.T, fset *token.FileSet, files map[string]*ast.File) *types.Info {
	t.Helper()
	byPkg := map[string][]*ast.File{} // import path -> files
	std := map[string]bool{}
	for path, f := range files {
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
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
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
	return fset, parseGoFiles(t, fset, false)
}

// parseGoFiles parses the Go files of the module and of benchmarks/ — the
// test files if tests is set, else the others — keyed by slash-separated
// path.
func parseGoFiles(t *testing.T, fset *token.FileSet, tests bool) map[string]*ast.File {
	t.Helper()
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") != tests {
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
	return files
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
