package sharebackup

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
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
