// Package analysis is csecg's in-tree static-analysis engine: it loads,
// parses and type-checks the module with the standard library's go/ast
// and go/types (no external dependencies) and runs a suite of
// domain-specific analyzers that turn the paper's embedded constraints —
// an integer-only MSP430 encoder path, allocation-free hot loops, a
// 10 kB RAM / 48 kB flash budget, and bit-reproducible wire output —
// into machine-checked invariants. cmd/csecg-vet is the command-line
// driver; DESIGN.md §8 documents the invariants and the directive
// grammar (//csecg:host, //csecg:hotpath, …) used to scope them.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Config scopes the analyzers to the repository layout.
type Config struct {
	// DevicePackages are the import paths whose code models the mote
	// firmware: the nofpu analyzer forbids floating point there and the
	// budget analyzer sums their //csecg:ram and //csecg:flash ledgers.
	DevicePackages []string
	// LibraryExcludePrefixes name import-path prefixes (cmd/, examples/)
	// exempt from the determinism analyzer.
	LibraryExcludePrefixes []string
	// StackBudgetConst names the device-package constant (a //csecg:ram
	// ledger line) that stackcheck asserts the worst-case static stack
	// bound against. Empty disables the assertion.
	StackBudgetConst string
}

// DefaultConfig returns the csecg repository scoping for a module path.
func DefaultConfig(modPath string) Config {
	return Config{
		DevicePackages: []string{
			modPath + "/internal/core",
			modPath + "/internal/sensing",
			modPath + "/internal/huffman",
			modPath + "/internal/mote",
		},
		LibraryExcludePrefixes: []string{
			modPath + "/cmd/",
			modPath + "/examples/",
		},
		StackBudgetConst: "RAMStackMisc",
	}
}

// isDevice reports whether importPath is a device-side package.
func (c Config) isDevice(importPath string) bool {
	for _, p := range c.DevicePackages {
		if importPath == p {
			return true
		}
	}
	return false
}

// isLibrary reports whether importPath is a library package (everything
// outside the exclude prefixes).
func (c Config) isLibrary(importPath string) bool {
	for _, p := range c.LibraryExcludePrefixes {
		if strings.HasPrefix(importPath, p) {
			return false
		}
	}
	return true
}

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Suggestion, when non-empty, names the nearest allowed alternative
	// (printed by the driver's -suggest mode).
	Suggestion string
	// Related holds supporting locations: the interval derivation of a
	// rangecheck finding, or the worst-case call chain of a stackcheck
	// finding. SARIF exports them as relatedLocations.
	Related []Related
}

// Related is one supporting location of a finding.
type Related struct {
	Pos     token.Position
	Message string
}

// String renders the canonical file:line:col: [analyzer] message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass is one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Config   Config
	Fset     *token.FileSet
	Pkg      *Package
	// Dirs indexes the package's //csecg: directives.
	Dirs  *Directives
	diags *[]Diagnostic
	seen  map[string]bool
}

// Report records a finding at pos. Findings are deduplicated per
// analyzer and source line so one offending expression yields one line
// of output.
func (p *Pass) Report(pos token.Pos, msg, suggestion string) {
	p.ReportRelated(pos, msg, suggestion, nil)
}

// ReportRelated is Report with supporting locations attached.
func (p *Pass) ReportRelated(pos token.Pos, msg, suggestion string, related []Related) {
	position := p.Fset.Position(pos)
	key := fmt.Sprintf("%s:%d", position.Filename, position.Line)
	if p.seen[key] {
		return
	}
	p.seen[key] = true
	*p.diags = append(*p.diags, Diagnostic{
		Pos:        position,
		Analyzer:   p.Analyzer.Name,
		Message:    msg,
		Suggestion: suggestion,
		Related:    related,
	})
}

// Analyzer is one named check. Run (per package) and RunModule (over
// the whole module with the call graph available) are both optional;
// an analyzer may define either or both halves under one name — nofpu
// and noalloc pair an intraprocedural Run with a transitive RunModule.
type Analyzer struct {
	Name      string
	Doc       string
	Run       func(*Pass)
	RunModule func(*ModulePass)
	// Advisory marks hint-grade analyzers (shiftidx): findings that are
	// honest but not always provable-clean on a correct tree. The driver
	// leaves them off by default and the clean-tree gate skips them.
	Advisory bool
}

// Analyzers returns the full suite in reporting order: the five
// original per-package analyzers (nofpu and noalloc now also carrying
// their transitive halves), the three call-graph analyzers for the
// host plane, and the v3 interval-engine analyzers (rangecheck,
// stackcheck, plus the advisory shiftidx).
func Analyzers() []*Analyzer {
	return []*Analyzer{NoFPU, NoAlloc, Budget, Determinism, ErrCheck, LockCheck, LeakCheck, MetricLint, RangeCheck, StackCheck, ShiftIdx}
}

// ModulePass is one module-wide analyzer's view of the whole module:
// every package, the call graph, and the directive index of each
// package.
type ModulePass struct {
	Analyzer *Analyzer
	Config   Config
	Fset     *token.FileSet
	Module   *Module
	Graph    *CallGraph
	dirs     map[string]*Directives
	diags    *[]Diagnostic
	seen     map[string]bool
}

// Dirs returns (building on demand) the directive index of pkg.
func (p *ModulePass) Dirs(pkg *Package) *Directives {
	d, ok := p.dirs[pkg.ImportPath]
	if !ok {
		d = scanDirectives(p.Fset, pkg)
		p.dirs[pkg.ImportPath] = d
	}
	return d
}

// NodeDirs returns the directive index of the package declaring n (nil
// for out-of-module nodes).
func (p *ModulePass) NodeDirs(n *FuncNode) *Directives {
	if n == nil || n.Pkg == nil {
		return nil
	}
	return p.Dirs(n.Pkg)
}

// Report records a module-wide finding, deduplicated per analyzer and
// source line like Pass.Report.
func (p *ModulePass) Report(pos token.Pos, msg, suggestion string) {
	p.ReportRelated(pos, msg, suggestion, nil)
}

// ReportRelated is Report with supporting locations attached.
func (p *ModulePass) ReportRelated(pos token.Pos, msg, suggestion string, related []Related) {
	position := p.Fset.Position(pos)
	key := fmt.Sprintf("%s:%d", position.Filename, position.Line)
	if p.seen[key] {
		return
	}
	p.seen[key] = true
	*p.diags = append(*p.diags, Diagnostic{
		Pos:        position,
		Analyzer:   p.Analyzer.Name,
		Message:    msg,
		Suggestion: suggestion,
		Related:    related,
	})
}

// RunPackage executes the per-package half of the given analyzers over
// one package (module-wide halves need RunModule).
func RunPackage(fset *token.FileSet, pkg *Package, cfg Config, analyzers []*Analyzer) []Diagnostic {
	dirs := scanDirectives(fset, pkg)
	var diags []Diagnostic
	for _, a := range analyzers {
		if a.Run == nil {
			continue
		}
		pass := &Pass{
			Analyzer: a,
			Config:   cfg,
			Fset:     fset,
			Pkg:      pkg,
			Dirs:     dirs,
			diags:    &diags,
			seen:     map[string]bool{},
		}
		a.Run(pass)
	}
	return diags
}

// RunModule executes the analyzers over every package of the module —
// per-package halves first, then the module-wide halves over a shared
// call graph — and returns the findings sorted by position.
func RunModule(mod *Module, cfg Config, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range mod.Pkgs {
		diags = append(diags, RunPackage(mod.Fset, pkg, cfg, analyzers)...)
	}
	var graph *CallGraph
	dirs := map[string]*Directives{}
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		if graph == nil {
			graph = BuildCallGraph(mod)
		}
		mp := &ModulePass{
			Analyzer: a,
			Config:   cfg,
			Fset:     mod.Fset,
			Module:   mod,
			Graph:    graph,
			dirs:     dirs,
			diags:    &diags,
			seen:     map[string]bool{},
		}
		a.RunModule(mp)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags
}
