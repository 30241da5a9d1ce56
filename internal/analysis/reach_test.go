package analysis

import (
	"go/ast"
	"go/types"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// reachOracles are the declarations no command reaches that stay on
// purpose, each with its reason: test oracles that production code is
// checked against. What an oracle itself reaches is part of it and is
// not reported. Nothing else may be listed; any other unreached
// function, method or type is deleted, and a helper only one package's
// tests use moves into those tests.
var reachOracles = map[string]string{
	"internal/huffman.Deserialize":     "parses a serialized codebook; the tests check Serialize, which csecg-codebook writes with, by the round trip",
	"internal/linalg.AdjointMismatch":  "measures ⟨Ax, y⟩ − ⟨x, Aᵀy⟩; the dct, linalg, sensing and wavelet tests check every operator's adjoint with it",
	"internal/metrics.Spearman":        "rank correlation; the PRDN estimator is calibrated against true PRDN with it",
	"internal/sensing.NewSparseBinary": "draws the sparse binary Φ from Xoshiro; the sensing and solver tests check MeasureInt, the Φ operators and the solvers on it, apart from the mote's LCG sampler",
	"internal/wfdb.ReadRecord":         "reads a WFDB header and format-212 signal file; the tests check WriteRecord, which csecg-export writes with, by the round trip",
	"internal/wfdb.ReadAnnotations":    "reads a WFDB annotation file; the tests check WriteAnnotations, which csecg-export writes with, by the round trip",
}

// TestEveryPackageReached is the dead-package gate: walking identifier
// references from every main and init under cmd/ and examples/ must
// reach at least one declaration in each package of the module. A
// package no command reaches is code only its own tests run; delete it
// or name the command that needs it.
func TestEveryPackageReached(t *testing.T) {
	r := walkModule(t)
	for _, ip := range r.unreachedPackages() {
		t.Errorf("no declaration of %s is reached from any main or init under cmd/ or examples/", ip)
	}
}

// TestEveryDeclarationReached is the dead-code gate one level down:
// every function, method and type of the module must be reached from a
// main or init under cmd/ or examples/, or be a test oracle listed in
// reachOracles with its reason.
func TestEveryDeclarationReached(t *testing.T) {
	r := walkModule(t)
	unreached := r.unreachedDecls()
	for name := range reachOracles {
		if !slices.Contains(unreached, name) {
			t.Errorf("reachOracles lists %s, which is reached or gone; drop the entry", name)
		}
	}
	r.reachNamed(reachOracles)
	for _, name := range r.unreachedDecls() {
		t.Errorf("%s is reached from no main or init under cmd/ or examples/; delete it, or list it in reachOracles if it is a test oracle", name)
	}
}

// TestReachWalkFixture pins the walk's verdicts on a small module that
// plants dead code next to each construct that must count as reached.
func TestReachWalkFixture(t *testing.T) {
	mod, err := LoadModule("testdata/reach")
	if err != nil {
		t.Fatal(err)
	}
	got := newReachWalk(mod).unreachedDecls()
	want := []string{
		"lib.(*Counter).Reset",
		"lib.(*Stack).Peek",
		"lib.Dead",
		"lib.Orphan",
		"lib.Orphan.Touch",
		"lib.Square.Perimeter",
	}
	if !slices.Equal(got, want) {
		t.Errorf("unreached declarations\n got %q\nwant %q", got, want)
	}
}

var reachModule struct {
	once sync.Once
	mod  *Module
	err  error
}

// walkModule walks the module, which it loads once for both gates.
func walkModule(t *testing.T) *reachWalk {
	t.Helper()
	if testing.Short() {
		t.Skip("whole-module type-check is slow; run without -short")
	}
	reachModule.once.Do(func() {
		reachModule.mod, reachModule.err = LoadModule(".")
	})
	if reachModule.err != nil {
		t.Fatal(reachModule.err)
	}
	return newReachWalk(reachModule.mod)
}

// reachDecl is one package-level declaration: the node whose
// identifier references are walked once it is reached.
type reachDecl struct {
	pkg  *Package
	node ast.Node
}

// reachWalk walks identifier references from the mains and inits under
// cmd/ and examples/. It is built so that a miss is never a false
// alarm:
//   - once any declaration of a package is reached, its var
//     initializers and init functions are walked too;
//   - a method is reached when it is named (called, or taken as a
//     value), or when its type is reached and the method belongs to an
//     interface the type implements, where the interface is one reached
//     code names or any of the standard library's (String, Write,
//     Import as types.Importer: the standard library dispatches on
//     those without the module naming them).
type reachWalk struct {
	mod     *Module
	decls   map[types.Object]reachDecl
	pkgInit map[string][]types.Object // var decls and init funcs per package
	seen    map[types.Object]bool
	live    map[string]bool
	work    []types.Object
	named   []*types.Named // reached non-interface named types
	ifaces  map[*types.Interface]bool
	// byMethod indexes the interfaces in ifaces by method name.
	byMethod map[string][]*types.Interface
}

func newReachWalk(mod *Module) *reachWalk {
	w := &reachWalk{
		mod:      mod,
		decls:    map[types.Object]reachDecl{},
		pkgInit:  map[string][]types.Object{},
		seen:     map[types.Object]bool{},
		live:     map[string]bool{},
		ifaces:   map[*types.Interface]bool{},
		byMethod: map[string][]*types.Interface{},
	}
	var roots []types.Object
	for _, pkg := range mod.Pkgs {
		rel := w.rel(pkg.ImportPath)
		isRoot := strings.HasPrefix(rel, "cmd/") || strings.HasPrefix(rel, "examples/")
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := pkg.Info.Defs[d.Name]
					w.decls[obj] = reachDecl{pkg, d}
					if d.Name.Name == "init" && d.Recv == nil {
						w.pkgInit[pkg.ImportPath] = append(w.pkgInit[pkg.ImportPath], obj)
					}
					if isRoot && d.Recv == nil && (d.Name.Name == "main" || d.Name.Name == "init") {
						roots = append(roots, obj)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							w.decls[pkg.Info.Defs[s.Name]] = reachDecl{pkg, s}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								obj := pkg.Info.Defs[n]
								w.decls[obj] = reachDecl{pkg, s}
								if _, ok := obj.(*types.Var); ok {
									w.pkgInit[pkg.ImportPath] = append(w.pkgInit[pkg.ImportPath], obj)
								}
							}
						}
					}
				}
			}
		}
	}
	w.addStdInterfaces()
	for _, r := range roots {
		w.reach(r)
	}
	w.run()
	return w
}

// run walks until neither a queued declaration nor a method matching
// an interface in use is left.
func (w *reachWalk) run() {
	for {
		w.drain()
		if !w.matchMethods() {
			return
		}
	}
}

// reachNamed walks on from the declarations whose unreachedDecls
// names are keys of names.
func (w *reachWalk) reachNamed(names map[string]string) {
	for obj, d := range w.decls {
		if _, ok := names[w.declName(obj, d)]; ok {
			w.reach(obj)
		}
	}
	w.run()
}

func (w *reachWalk) rel(importPath string) string {
	return strings.TrimPrefix(importPath, w.mod.Path+"/")
}

func (w *reachWalk) reach(obj types.Object) {
	if fn, ok := obj.(*types.Func); ok {
		obj = fn.Origin() // a generic function's or method's declaration
	}
	if _, ok := w.decls[obj]; ok && !w.seen[obj] {
		w.seen[obj] = true
		w.work = append(w.work, obj)
	}
}

// addIface puts an interface in use: reached types' methods that
// implement it are reached.
func (w *reachWalk) addIface(t types.Type) {
	it, ok := t.Underlying().(*types.Interface)
	if !ok || w.ifaces[it] {
		return
	}
	w.ifaces[it] = true
	for i := 0; i < it.NumMethods(); i++ {
		name := it.Method(i).Name()
		w.byMethod[name] = append(w.byMethod[name], it)
	}
}

// addStdInterfaces puts in use every interface type declared by a
// standard-library package the module imports, directly or not, and
// the predeclared error.
func (w *reachWalk) addStdInterfaces() {
	w.addIface(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, imp := range p.Imports() {
			visit(imp)
		}
		if p.Path() == w.mod.Path || strings.HasPrefix(p.Path(), w.mod.Path+"/") {
			return
		}
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
					continue
				}
				w.addIface(tn.Type())
			}
		}
	}
	for _, pkg := range w.mod.Pkgs {
		visit(pkg.Types)
	}
}

// drain walks every queued declaration.
func (w *reachWalk) drain() {
	for len(w.work) > 0 {
		obj := w.work[len(w.work)-1]
		w.work = w.work[:len(w.work)-1]
		d := w.decls[obj]
		if ip := d.pkg.ImportPath; !w.live[ip] {
			w.live[ip] = true
			for _, o := range w.pkgInit[ip] {
				w.reach(o)
			}
		}
		switch obj := obj.(type) {
		case *types.TypeName:
			if _, ok := obj.Type().Underlying().(*types.Interface); ok {
				w.addIface(obj.Type())
			} else if n, ok := obj.Type().(*types.Named); ok {
				w.named = append(w.named, n)
			}
		case *types.Const, *types.Var:
			// An iota const's spec may not spell its type.
			if n, ok := obj.Type().(*types.Named); ok {
				w.reach(n.Origin().Obj())
			}
		}
		ast.Inspect(d.node, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if use := d.pkg.Info.Uses[n]; use != nil {
					w.reach(use)
				}
			case *ast.InterfaceType:
				if tv, ok := d.pkg.Info.Types[n]; ok {
					w.addIface(tv.Type)
				}
			}
			return true
		})
	}
}

// matchMethods reaches the methods of reached types that implement an
// interface in use, and reports whether it reached any.
func (w *reachWalk) matchMethods() bool {
	grew := false
	for _, n := range w.named {
		generic := n.TypeParams().Len() > 0
		ptr := types.NewPointer(n)
		ms := types.NewMethodSet(ptr)
		for i := 0; i < ms.Len(); i++ {
			fn := ms.At(i).Obj().(*types.Func).Origin()
			if w.seen[fn] {
				continue
			}
			for _, it := range w.byMethod[fn.Name()] {
				// An uninstantiated generic type, or an interface
				// with a type set, cannot be asked Implements: the
				// method name is taken as a match.
				if generic || !it.IsMethodSet() || types.Implements(n, it) || types.Implements(ptr, it) {
					w.reach(fn)
					grew = grew || w.seen[fn]
					break
				}
			}
		}
	}
	return grew
}

// unreachedPackages returns the import paths, relative to the module,
// of the packages in which the walk reaches no declaration.
func (w *reachWalk) unreachedPackages() []string {
	var out []string
	for _, pkg := range w.mod.Pkgs {
		if !w.live[pkg.ImportPath] {
			out = append(out, w.rel(pkg.ImportPath))
		}
	}
	return out
}

// unreachedDecls names, sorted, every function, method and type the
// walk does not reach, as pkg.Func, pkg.Type, pkg.Type.Method or
// pkg.(*Type).Method with pkg relative to the module.
func (w *reachWalk) unreachedDecls() []string {
	var out []string
	for obj, d := range w.decls {
		if w.seen[obj] || obj.Name() == "_" {
			continue
		}
		if name := w.declName(obj, d); name != "" {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// declName names a function, method or type declaration as
// unreachedDecls reports it, and returns "" for any other.
func (w *reachWalk) declName(obj types.Object, d reachDecl) string {
	name := w.rel(d.pkg.ImportPath) + "."
	switch obj := obj.(type) {
	case *types.TypeName:
		return name + obj.Name()
	case *types.Func:
		recv := obj.Type().(*types.Signature).Recv()
		if recv == nil {
			return name + obj.Name()
		}
		rt := recv.Type()
		p, isPtr := rt.(*types.Pointer)
		if isPtr {
			rt = p.Elem()
		}
		tn := rt.(interface{ Obj() *types.TypeName }).Obj().Name()
		if isPtr {
			return name + "(*" + tn + ")." + obj.Name()
		}
		return name + tn + "." + obj.Name()
	}
	return ""
}
