package lint_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"testing"

	"repro/internal/lint/load"
)

// reachAllow names the non-test code that only tests reach and that is
// kept on purpose as test support. A key is a package path (the whole
// package) or a function key as funcKey prints it.
var reachAllow = map[string]string{
	"repro/internal/ilp":                                  "exact ILP oracle that cross-validates ucp's covering",
	"repro/internal/lint/analysistest":                    "harness that runs each analyzer over its testdata",
	"repro/internal/durable/faultfs":                      "fault-injecting filesystem for durable's crash tests",
	"repro/internal/durable.(*Store).Crash":               "simulates a crash for durable's and serve's recovery tests",
	"repro/internal/serve.setTestJobStartHook":            "lets serve's tests park a job at a known point",
	"repro/internal/serve.(*Server).Registry":             "exposes the metrics registry to serve's tests",
	"repro/internal/num.Positive":                         "used by internal/ilp",
	"repro/internal/lint/analysis.Run":                    "single-analyzer entry point of the framework's own tests",
	"repro/internal/lint/analysis.(*Pass).AllObjectFacts": "fact query the framework's tests assert through",
	"repro/internal/lint/load.(*Runner).Facts":            "fact store analysistest asserts exported facts through",
	"repro/internal/place.LowerBound":                     "certified per-merging bound kept for the certified-optimality work",
	"repro/internal/obs.(*Span).Attr":                     "span attribute lookup used by obs and serve tests",
	"repro/internal/library.(*Library).LinkByName":        "link lookup used by library, soc and workloads tests",
	"repro/internal/geom.Point.AlmostEq":                  "tolerant point comparison used by geom and place tests",
}

// assertedMethods are called by the standard library through a type
// assertion on an empty interface (fmt, encoding/json, errors, gob), so
// no interface type in a signature names them.
var assertedMethods = []string{
	"String", "GoString", "Format", "Error", "Unwrap", "Is", "As",
	"MarshalJSON", "UnmarshalJSON", "MarshalText", "UnmarshalText",
	"GobEncode", "GobDecode",
}

// TestEveryFunctionReachable fails on each non-test function or method
// that no program root reaches, so code only tests call does not creep
// back. Roots are every main and init function, the exported
// declarations of the cdcs facade, package-level initializers, the
// perfbench module (loaded as one more main package) and every method
// whose name some interface type of the program, or of a standard
// library signature it uses, declares. A method of an internal type the
// facade re-exports as an alias counts only when some code calls it.
func TestEveryFunctionReachable(t *testing.T) {
	root, module, err := load.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l := load.New(root, module)
	dirs, err := l.Dirs([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}

	decls := map[*types.Func]token.Position{}
	edges := map[*types.Func][]*types.Func{}
	var roots []*types.Func
	ifaceNames := map[string]bool{}
	for _, n := range assertedMethods {
		ifaceNames[n] = true
	}
	seen := map[types.Type]bool{}
	var walk func(types.Type)
	walk = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Alias:
			walk(types.Unalias(t))
		case *types.Named:
			if it, ok := t.Underlying().(*types.Interface); ok {
				walk(it)
			}
			for i := 0; i < t.TypeArgs().Len(); i++ {
				walk(t.TypeArgs().At(i))
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				ifaceNames[t.Method(i).Name()] = true
			}
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Signature:
			walk(t.Params())
			walk(t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				walk(t.At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				walk(t.Field(i).Type())
			}
		case *types.TypeParam:
			walk(t.Constraint())
		}
	}

	facade := module + "/cdcs"
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, obj := range pkg.Info.Defs {
			if obj != nil {
				walk(obj.Type())
			}
		}
		for _, obj := range pkg.Info.Uses {
			walk(obj.Type())
		}
		for _, tv := range pkg.Info.Types {
			walk(tv.Type)
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						roots = append(roots, funcRefs(d, pkg.Info.Uses)...)
					}
				case *ast.FuncDecl:
					fn, _ := pkg.Info.Defs[d.Name].(*types.Func)
					if fn == nil {
						continue
					}
					decls[fn] = pkg.Fset.Position(d.Pos())
					if d.Body != nil {
						edges[fn] = funcRefs(d.Body, pkg.Info.Uses)
					}
					name := d.Name.Name
					switch {
					case d.Recv == nil && name == "init",
						d.Recv == nil && name == "main" && pkg.Types.Name() == "main",
						pkg.Path == facade && ast.IsExported(name):
						roots = append(roots, fn)
					}
				}
			}
		}
	}
	for fn := range decls {
		if sig := fn.Type().(*types.Signature); sig.Recv() != nil && ifaceNames[fn.Name()] {
			roots = append(roots, fn)
		}
	}

	reached := map[*types.Func]bool{}
	for len(roots) > 0 {
		fn := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		if reached[fn] {
			continue
		}
		reached[fn] = true
		roots = append(roots, edges[fn]...)
	}

	var dead []string
	used := map[string]bool{}
	for fn, pos := range decls {
		if reached[fn] {
			continue
		}
		key := funcKey(fn)
		if _, ok := reachAllow[key]; ok {
			used[key] = true
			continue
		}
		if _, ok := reachAllow[fn.Pkg().Path()]; ok {
			used[fn.Pkg().Path()] = true
			continue
		}
		dead = append(dead, pos.String()+": "+key)
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("only tests reach %s", d)
	}
	for key := range reachAllow {
		if !used[key] {
			t.Errorf("allowlist entry %s names no unreached function; drop it", key)
		}
	}
}

// funcRefs returns every function or method n refers to, generic ones
// by their origin.
func funcRefs(n ast.Node, uses map[*ast.Ident]types.Object) []*types.Func {
	var refs []*types.Func
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := uses[id].(*types.Func); ok {
				refs = append(refs, fn.Origin())
			}
		}
		return true
	})
	return refs
}

// funcKey names fn as "pkgpath.Func", "pkgpath.T.Method" or
// "pkgpath.(*T).Method".
func funcKey(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	recv := sig.Recv().Type()
	ptr := ""
	if p, ok := recv.(*types.Pointer); ok {
		recv, ptr = p.Elem(), "*"
	}
	name := recv.String()
	if n, ok := types.Unalias(recv).(*types.Named); ok {
		name = n.Obj().Name()
	}
	if ptr != "" {
		return fn.Pkg().Path() + ".(" + ptr + name + ")." + fn.Name()
	}
	return fn.Pkg().Path() + "." + name + "." + fn.Name()
}
