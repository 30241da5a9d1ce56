package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package of the module under analysis.
type Package struct {
	// ImportPath is the package's import path ("csecg/internal/core").
	ImportPath string
	// Dir is the absolute directory holding the package sources.
	Dir string
	// Files are the parsed non-test sources, in file-name order.
	Files []*ast.File
	// Types and Info carry the go/types results.
	Types *types.Package
	Info  *types.Info
}

// Module is a loaded, parsed and type-checked Go module.
type Module struct {
	// Root is the directory containing go.mod.
	Root string
	// Path is the module path from go.mod.
	Path string
	// Fset positions every parsed file.
	Fset *token.FileSet
	// Pkgs holds every non-test package, sorted by import path.
	Pkgs []*Package
}

// loader resolves module-internal imports from source and delegates the
// standard library to the gc source importer, so the whole analysis
// stays inside the standard library (no external module loader).
type loader struct {
	root, modPath string
	fset          *token.FileSet
	std           types.Importer
	dirs          map[string]string // import path -> dir
	pkgs          map[string]*Package
	loading       map[string]bool // cycle detection
}

// findModuleRoot walks up from dir to the directory containing go.mod.
func findModuleRoot(dir string) (root, modPath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module directive", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// discover maps every package directory of the module to its import
// path. testdata, hidden and vendor directories are skipped, as are
// directories holding only test files.
func (l *loader) discover() error {
	l.dirs = map[string]string{}
	return filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if len(goSources(path)) == 0 {
			return nil
		}
		rel, err := filepath.Rel(l.root, path)
		if err != nil {
			return err
		}
		ip := l.modPath
		if rel != "." {
			ip = l.modPath + "/" + filepath.ToSlash(rel)
		}
		l.dirs[ip] = path
		return nil
	})
}

// goSources lists the non-test .go files of dir that the go command
// would build for this GOOS/GOARCH (file-name suffixes and //go:build
// lines), in name order, so a package with per-architecture files
// type-checks as the compiler sees it.
func goSources(dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") ||
			strings.HasSuffix(n, "_test.go") || strings.HasPrefix(n, ".") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, n); err == nil && !ok {
			continue
		}
		out = append(out, filepath.Join(dir, n))
	}
	sort.Strings(out)
	return out
}

// Import implements types.Importer over both halves of the world.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks one module package (memoized).
func (l *loader) load(importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("analysis: import cycle through %s", importPath)
	}
	dir, ok := l.dirs[importPath]
	if !ok {
		return nil, fmt.Errorf("analysis: package %s not found in module %s", importPath, l.modPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	pkg, err := typeCheckDir(l.fset, dir, importPath, l)
	if err != nil {
		return nil, err
	}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// typeCheckDir parses and type-checks the non-test files of one
// directory as a single package using imp for imports.
func typeCheckDir(fset *token.FileSet, dir, importPath string, imp types.Importer) (*Package, error) {
	srcs := goSources(dir)
	if len(srcs) == 0 {
		return nil, fmt.Errorf("analysis: no Go sources in %s", dir)
	}
	var files []*ast.File
	for _, src := range srcs {
		f, err := parser.ParseFile(fset, src, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", importPath, err)
	}
	return &Package{ImportPath: importPath, Dir: dir, Files: files, Types: tpkg, Info: info}, nil
}

// LoadModule parses and type-checks every non-test package of the module
// containing dir.
func LoadModule(dir string) (*Module, error) {
	root, modPath, err := findModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &loader{
		root:    root,
		modPath: modPath,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}
	if err := l.discover(); err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(l.dirs))
	//csecg:orderok keys are sorted immediately below
	for ip := range l.dirs {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	mod := &Module{Root: root, Path: modPath, Fset: fset}
	for _, ip := range paths {
		pkg, err := l.load(ip)
		if err != nil {
			return nil, err
		}
		mod.Pkgs = append(mod.Pkgs, pkg)
	}
	return mod, nil
}
