package analysis

import (
	"strings"
	"testing"
)

// Lookup finds a node by its ShortName ("core.(*Encoder).EncodeWindow")
// or its full go/types name.
func (g *CallGraph) Lookup(name string) *FuncNode {
	for fn, n := range g.nodes {
		if shortFuncName(fn) == name || fn.FullName() == name {
			return n
		}
	}
	return nil
}

// EdgeBetween reports whether an edge caller→callee exists, by
// ShortName.
func (g *CallGraph) EdgeBetween(caller, callee string) bool {
	n := g.Lookup(caller)
	if n == nil {
		return false
	}
	for _, e := range n.Out {
		if e.Callee.ShortName() == callee {
			return true
		}
	}
	return false
}

// TestCallGraphSoundness pins known edges of the real module's call
// graph: the encode pipeline's static chain (EncodeWindow down to the
// bit writer), a goroutine edge, and an interface-dispatch edge. If
// edge resolution regresses — a refactor stops resolving method calls,
// or interface satisfaction sets go missing — the transitive analyzers
// silently stop seeing through those calls, so this test is the canary.
func TestCallGraphSoundness(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is slow; run without -short")
	}
	mod, err := LoadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	g := BuildCallGraph(mod)

	// The paper's encode pipeline, edge by edge.
	chain := [][2]string{
		{"core.(*Encoder).EncodeWindow", "core.(*Encoder).encodeDelta"},
		{"core.(*Encoder).encodeDelta", "huffman.(*Codebook).Encode"},
		{"huffman.(*Codebook).Encode", "huffman.(*BitWriter).WriteBits"},
	}
	for _, e := range chain {
		if !g.EdgeBetween(e[0], e[1]) {
			t.Errorf("missing static edge %s → %s", e[0], e[1])
		}
	}

	root := g.Lookup("core.(*Encoder).EncodeWindow")
	if root == nil {
		t.Fatal("EncodeWindow not in graph")
	}
	if !root.InModule() {
		t.Error("EncodeWindow should be a module node with a body")
	}

	// PathTo walks the chain transitively: WriteBits must be reachable
	// from EncodeWindow through module bodies only.
	path, desc := g.PathTo(root, func(n *FuncNode) string {
		if n.ShortName() == "huffman.(*BitWriter).WriteBits" {
			return "target"
		}
		return ""
	}, func(e *Edge) bool { return true })
	if path == nil || desc != "target" {
		t.Fatal("no path EncodeWindow → … → WriteBits")
	}
	if got := FormatChain(root, path); !strings.Contains(got, "WriteBits") {
		t.Errorf("FormatChain(%q) does not end at WriteBits", got)
	}

	// Interface dispatch: the monitor's HTTP mux calls handlers through
	// http.HandlerFunc values, and the coordinator solves through the
	// solver interface — at least one interface edge must exist
	// somewhere in the module.
	foundIface, foundGo := false, false
	for _, n := range g.Nodes() {
		for _, e := range n.Out {
			if e.Kind == EdgeInterface {
				foundIface = true
			}
			if e.Go {
				foundGo = true
			}
		}
	}
	if !foundIface {
		t.Error("no interface-dispatch edges resolved anywhere in the module")
	}
	if !foundGo {
		t.Error("no goroutine-launch edges resolved anywhere in the module")
	}

	// Lookup also accepts full go/types names.
	if g.Lookup("csecg/internal/core.EncodeWindow") == nil && g.Lookup("(*csecg/internal/core.Encoder).EncodeWindow") == nil {
		t.Error("Lookup by full name resolves nothing for EncodeWindow")
	}
}

// TestCallGraphDisabledDetection proves the golden tests actually gate
// detection: running the transitive noalloc testdata with edges
// suppressed must report nothing, i.e. the findings come from the call
// graph, not from some intraprocedural shortcut.
func TestCallGraphDisabledDetection(t *testing.T) {
	pkg, fset, err := LoadDir("testdata/src/noalloctrans", "noalloctranstest")
	if err != nil {
		t.Fatal(err)
	}
	mod := &Module{Root: "testdata/src/noalloctrans", Path: "noalloctranstest", Fset: fset, Pkgs: []*Package{pkg}}
	diags := RunModule(mod, Config{}, []*Analyzer{NoAlloc})
	transitive := 0
	for _, d := range diags {
		if strings.Contains(d.Message, "reaches an allocation") {
			transitive++
		}
	}
	if transitive == 0 {
		t.Fatal("transitive noalloc reported nothing on testdata that requires call-graph edges")
	}

	// Now sever every edge (simulating a broken graph) and re-run just
	// the module half: the transitive findings must disappear, showing
	// they depend on edge resolution.
	graph := BuildCallGraph(mod)
	for _, n := range graph.Nodes() {
		n.Out = nil
	}
	var out []Diagnostic
	mp := &ModulePass{
		Analyzer: NoAlloc,
		Config:   Config{},
		Fset:     fset,
		Module:   mod,
		Graph:    graph,
		dirs:     map[string]*Directives{},
		diags:    &out,
		seen:     map[string]bool{},
	}
	NoAlloc.RunModule(mp)
	for _, d := range out {
		t.Errorf("finding with no call edges should be impossible: %s", d)
	}
}
