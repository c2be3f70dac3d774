package lint_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"smallbandwidth/internal/lint/linttest"
	"smallbandwidth/internal/lint/load"
)

// testOnlyExports are the exported internal/ identifiers that only tests
// reference, each shipped on purpose. Keys are relative to internalPrefix:
// "pkg.Name" for package-level names, "pkg.Type.Method" for methods.
var testOnlyExports = map[string]string{
	"engine.Checkpointer.At":        "crash-at-every-round harness of the root and core resume tests",
	"engine.Checkpointer.CutRounds": "crash-at-every-round harness of the root and core resume tests",
	"engine.SetForceShards":         "pins the shard count in congest's and other packages' determinism tests",
	"gf2.MustFamily":                "fixture constructor in other packages' tests",
	"gf2.MustField":                 "fixture constructor in other packages' tests",
	"gf2.VecFromUint64":             "fixture constructor in other packages' tests",
	"gf2.Family.Eval":               "scalar oracle of family_test, also timed by BenchmarkFamilyEval",
	"graph.BinaryTree":              "fixture graph in other packages' tests",
	"graph.ShiftedListInstance":     "fixture instance in other packages' tests",
	"mpc.DeltaPlusOneMPC":           "Observation 4.1, which only its test reproduces",
	"lint/linttest.Run":             "runs an analyzer on its fixtures; the package exists for tests",
	"lint/linttest.RunExpectNone":   "runs an analyzer on its fixtures; the package exists for tests",
}

const internalPrefix = "smallbandwidth/internal/"

// declared is one subject of TestNoTestOnlyExports: an exported
// package-level name or exported method declared under internal/.
type declared struct {
	fset     *token.FileSet
	pos, end token.Pos    // the declaration's own span
	recv     *types.Named // a method's receiver type; nil for package-level names
	method   string
}

// TestNoTestOnlyExports fails when an exported identifier of an
// internal/ package is referenced only from _test.go files. The loader
// reads non-test files only, so every reference it records is from
// shipping code: the main module and cmd/sbwbench, which builds against
// it. A use inside the identifier's own declaration does not count.
// Methods a root-package alias re-exports are public API, and a method
// its type needs to implement an interface of the main module's import
// closure may be reached by dynamic dispatch, so both count as used.
func TestNoTestOnlyExports(t *testing.T) {
	if testing.Short() {
		t.Skip("loads both modules; skipped in -short")
	}
	root := linttest.ModuleRoot(t)
	var pkgs []*load.Package
	var ifaces []*types.Interface
	for i, dir := range []string{root, filepath.Join(root, "cmd", "sbwbench")} {
		ps, err := load.New(dir).Load("./...")
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, ps...)
		if i == 0 {
			// Subjects come from this load, and go/types compares types
			// only within one load.
			seen := map[*types.Package]bool{}
			for _, p := range ps {
				ifaces = collectIfaces(p.Types, seen, ifaces)
			}
		}
	}

	subjects := map[string]declared{}
	for _, p := range pkgs {
		if strings.HasPrefix(p.PkgPath, internalPrefix) {
			collectSubjects(p, subjects)
		}
	}

	used := map[string]bool{}
	for _, p := range pkgs {
		for id, obj := range p.Info.Uses {
			k := exportKey(obj)
			if s, ok := subjects[k]; ok && s.fset == p.Fset && s.pos <= id.Pos() && id.Pos() < s.end {
				continue
			}
			used[k] = true
		}
		if p.PkgPath == "smallbandwidth" {
			for _, name := range p.Types.Scope().Names() {
				tn, ok := p.Types.Scope().Lookup(name).(*types.TypeName)
				if !ok || !tn.IsAlias() {
					continue
				}
				if named, ok := tn.Type().(*types.Named); ok {
					for i := 0; i < named.NumMethods(); i++ {
						used[exportKey(named.Method(i))] = true
					}
				}
			}
		}
	}
	for k, s := range subjects {
		if !used[k] && s.recv != nil && implementsWith(s.recv, s.method, ifaces) {
			used[k] = true
		}
	}

	var flagged []string
	for k := range subjects {
		if _, allowed := testOnlyExports[k]; !allowed && !used[k] {
			flagged = append(flagged, k)
		}
	}
	sort.Strings(flagged)
	for _, k := range flagged {
		s := subjects[k]
		t.Errorf("%s: %s is referenced only from tests: delete it, move it into a _test.go file, or allowlist it with a reason",
			s.fset.Position(s.pos), k)
	}
	for k, reason := range testOnlyExports {
		_, ok := subjects[k]
		switch {
		case !ok:
			t.Errorf("allowlist entry %s names no exported internal/ identifier", k)
		case used[k]:
			t.Errorf("allowlist entry %s is used by shipping code now: remove the entry", k)
		case reason == "":
			t.Errorf("allowlist entry %s gives no reason", k)
		}
	}
}

// collectSubjects records p's exported package-level declarations and
// the exported methods of its exported types.
func collectSubjects(p *load.Package, into map[string]declared) {
	add := func(obj types.Object, n ast.Node) {
		if k := exportKey(obj); k != "" {
			d := declared{fset: p.Fset, pos: n.Pos(), end: n.End()}
			if fn, ok := obj.(*types.Func); ok {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					d.recv, d.method = namedRecv(recv.Type()), fn.Name()
				}
			}
			into[k] = d
		}
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				add(p.Info.Defs[decl.Name], decl)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(p.Info.Defs[spec.Name], spec)
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							add(p.Info.Defs[name], spec)
						}
					}
				}
			}
		}
	}
}

// exportKey names obj relative to internalPrefix when it is an exported
// package-level object or an exported method of an exported named type
// declared under internal/, and returns "" otherwise.
func exportKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil || !obj.Exported() || !strings.HasPrefix(obj.Pkg().Path(), internalPrefix) {
		return ""
	}
	rel := strings.TrimPrefix(obj.Pkg().Path(), internalPrefix)
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Origin().Type().(*types.Signature).Recv(); recv != nil {
			named := namedRecv(recv.Type())
			if named == nil || !named.Obj().Exported() || types.IsInterface(named) {
				return ""
			}
			return rel + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return rel + "." + obj.Name()
}

// namedRecv returns the named type of a method receiver, through one
// pointer, or nil.
func namedRecv(rt types.Type) *types.Named {
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	named, _ := rt.(*types.Named)
	return named
}

// collectIfaces appends every non-generic, non-empty package-level
// interface of tp and its import closure to into.
func collectIfaces(tp *types.Package, seen map[*types.Package]bool, into []*types.Interface) []*types.Interface {
	if tp == nil || seen[tp] {
		return into
	}
	seen[tp] = true
	for _, name := range tp.Scope().Names() {
		tn, ok := tp.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
			continue
		}
		if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
			into = append(into, it)
		}
	}
	for _, imp := range tp.Imports() {
		into = collectIfaces(imp, seen, into)
	}
	return into
}

// implementsWith reports whether recv or *recv implements one of ifaces
// that declares method.
func implementsWith(recv *types.Named, method string, ifaces []*types.Interface) bool {
	ptr := types.NewPointer(recv)
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == method && (types.Implements(recv, it) || types.Implements(ptr, it)) {
				return true
			}
		}
	}
	return false
}
