package analysis

import (
	"go/ast"
	"go/types"
	"strings"
	"testing"
)

// TestEveryPackageReached is the dead-package gate: walking identifier
// references from every main and init under cmd/ and examples/ must
// reach at least one declaration in each package of the module. A
// package no command reaches is code only its own tests run; delete it
// or name the command that needs it.
//
// The walk is deliberately coarse, so that a miss is never a false
// alarm: a reached named type makes all of its methods live (interface
// dispatch and reflection need no tracking), and once any declaration
// of a package is reached, its var and const initializers and its init
// functions are walked too.
func TestEveryPackageReached(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is slow; run without -short")
	}
	mod, err := LoadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, ip := range unreachedPackages(mod) {
		t.Errorf("no declaration of %s is reached from any main or init under cmd/ or examples/", ip)
	}
}

// reachDecl is one package-level declaration: the node whose
// identifier references are walked once it is reached.
type reachDecl struct {
	pkg  *Package
	node ast.Node
}

// unreachedPackages returns the import paths, relative to the module,
// of the packages in which the walk reaches no declaration.
func unreachedPackages(mod *Module) []string {
	decls := map[types.Object]reachDecl{}
	pkgInit := map[string][]types.Object{} // var, const and init decls per package
	var roots []types.Object
	for _, pkg := range mod.Pkgs {
		rel := strings.TrimPrefix(pkg.ImportPath, mod.Path+"/")
		isRoot := strings.HasPrefix(rel, "cmd/") || strings.HasPrefix(rel, "examples/")
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := pkg.Info.Defs[d.Name]
					decls[obj] = reachDecl{pkg, d}
					if d.Name.Name == "init" && d.Recv == nil {
						pkgInit[pkg.ImportPath] = append(pkgInit[pkg.ImportPath], obj)
					}
					if isRoot && d.Recv == nil && (d.Name.Name == "main" || d.Name.Name == "init") {
						roots = append(roots, obj)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							decls[pkg.Info.Defs[s.Name]] = reachDecl{pkg, s}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								obj := pkg.Info.Defs[n]
								decls[obj] = reachDecl{pkg, s}
								pkgInit[pkg.ImportPath] = append(pkgInit[pkg.ImportPath], obj)
							}
						}
					}
				}
			}
		}
	}

	seen := map[types.Object]bool{}
	live := map[string]bool{}
	var work []types.Object
	reach := func(obj types.Object) {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin() // a generic function's or method's declaration
		}
		if _, ok := decls[obj]; ok && !seen[obj] {
			seen[obj] = true
			work = append(work, obj)
		}
	}
	for _, r := range roots {
		reach(r)
	}
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		d := decls[obj]
		if ip := d.pkg.ImportPath; !live[ip] {
			live[ip] = true
			for _, o := range pkgInit[ip] {
				reach(o)
			}
		}
		if tn, ok := obj.(*types.TypeName); ok {
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					reach(named.Method(i))
				}
			}
		}
		ast.Inspect(d.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if use := d.pkg.Info.Uses[id]; use != nil {
					reach(use)
				}
			}
			return true
		})
	}

	var out []string
	for _, pkg := range mod.Pkgs {
		if !live[pkg.ImportPath] {
			out = append(out, strings.TrimPrefix(pkg.ImportPath, mod.Path+"/"))
		}
	}
	return out
}
