package analysis

import (
	"go/importer"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The golden tests run each analyzer over a small package under
// testdata/src/<analyzer>/ whose sources carry analysistest-style
// expectations: a `// want "regex"` comment on a line means exactly one
// diagnostic whose message matches the regex must be reported there,
// and any diagnostic without a matching want fails the test.

// LoadDir parses and type-checks a single directory as one package with
// the given import path, resolving only standard-library imports — the
// loader behind the analyzer golden tests.
func LoadDir(dir, importPath string) (*Package, *token.FileSet, error) {
	fset := token.NewFileSet()
	pkg, err := typeCheckDir(fset, dir, importPath, importer.ForCompiler(fset, "source", nil))
	if err != nil {
		return nil, nil, err
	}
	return pkg, fset, nil
}

var wantRE = regexp.MustCompile(`// want "(.*)"`)

type wantDiag struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

func parseWants(t *testing.T, dir string) []*wantDiag {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*wantDiag
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want regex %q: %v", e.Name(), i+1, m[1], err)
			}
			wants = append(wants, &wantDiag{file: e.Name(), line: i + 1, re: re})
		}
	}
	return wants
}

func matchWants(t *testing.T, dir string, diags []Diagnostic) {
	t.Helper()
	wants := parseWants(t, dir)
	for _, d := range diags {
		base := filepath.Base(d.Pos.Filename)
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == base && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
}

func runGolden(t *testing.T, name string, a *Analyzer, cfg func(importPath string) Config) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	importPath := name + "test"
	pkg, fset, err := LoadDir(dir, importPath)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	matchWants(t, dir, RunPackage(fset, pkg, cfg(importPath), []*Analyzer{a}))
}

// runGoldenModule is runGolden for analyzers with a RunModule half: the
// testdata package is wrapped into a single-package module so the call
// graph and directive index exist.
func runGoldenModule(t *testing.T, name string, a *Analyzer, cfg func(importPath string) Config) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	importPath := name + "test"
	pkg, fset, err := LoadDir(dir, importPath)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	mod := &Module{Root: dir, Path: importPath, Fset: fset, Pkgs: []*Package{pkg}}
	matchWants(t, dir, RunModule(mod, cfg(importPath), []*Analyzer{a}))
}

func TestNoFPUGolden(t *testing.T) {
	runGolden(t, "nofpu", NoFPU, func(ip string) Config {
		return Config{DevicePackages: []string{ip}}
	})
}

func TestNoAllocGolden(t *testing.T) {
	runGolden(t, "noalloc", NoAlloc, func(ip string) Config { return Config{} })
}

func TestBudgetGolden(t *testing.T) {
	runGolden(t, "budget", Budget, func(ip string) Config {
		return Config{DevicePackages: []string{ip}}
	})
}

func TestDeterminismGolden(t *testing.T) {
	// No exclude prefixes: the testdata package counts as a library.
	runGolden(t, "determinism", Determinism, func(ip string) Config { return Config{} })
}

func TestErrCheckGolden(t *testing.T) {
	runGolden(t, "errcheck", ErrCheck, func(ip string) Config { return Config{} })
}

func TestNoAllocTransitiveGolden(t *testing.T) {
	runGoldenModule(t, "noalloctrans", NoAlloc, func(ip string) Config { return Config{} })
}

func TestNoFPUTransitiveGolden(t *testing.T) {
	runGoldenModule(t, "nofputrans", NoFPU, func(ip string) Config {
		return Config{DevicePackages: []string{ip}}
	})
}

func TestLockCheckGolden(t *testing.T) {
	runGoldenModule(t, "lockcheck", LockCheck, func(ip string) Config { return Config{} })
}

func TestLeakCheckGolden(t *testing.T) {
	runGoldenModule(t, "leakcheck", LeakCheck, func(ip string) Config { return Config{} })
}

func TestMetricLintGolden(t *testing.T) {
	runGoldenModule(t, "metriclint", MetricLint, func(ip string) Config { return Config{} })
}

func TestRangeCheckGolden(t *testing.T) {
	runGolden(t, "rangecheck", RangeCheck, func(ip string) Config {
		return Config{DevicePackages: []string{ip}}
	})
}

func TestShiftIdxGolden(t *testing.T) {
	runGolden(t, "shiftidx", ShiftIdx, func(ip string) Config {
		return Config{DevicePackages: []string{ip}}
	})
}

func TestStackCheckGolden(t *testing.T) {
	runGoldenModule(t, "stackcheck", StackCheck, func(ip string) Config {
		return Config{DevicePackages: []string{ip}, StackBudgetConst: "stackBudget"}
	})
}

// TestModuleIsClean is the end-to-end gate: the full suite over the
// whole repository must report nothing — the same invariant CI enforces
// with `go run ./cmd/csecg-vet ./...`. Advisory analyzers (shiftidx)
// are excluded here as they are in the csecg-vet defaults: their hints
// flag honest can't-prove cases, not violations.
func TestModuleIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is slow; run without -short")
	}
	mod, err := LoadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	var gating []*Analyzer
	for _, a := range Analyzers() {
		if !a.Advisory {
			gating = append(gating, a)
		}
	}
	diags := RunModule(mod, DefaultConfig(mod.Path), gating)
	for _, d := range diags {
		t.Errorf("unexpected finding on clean tree: %s", d)
	}
}
