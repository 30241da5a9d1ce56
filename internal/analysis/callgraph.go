package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"sort"
	"strings"
)

// This file builds the module-wide call graph behind the v2 analyzers:
// transitive nofpu/noalloc, lockcheck, leakcheck and metriclint. The
// graph is intentionally simple — it resolves three kinds of edges and
// documents what it cannot see (DESIGN.md §12):
//
//   - static calls: plain function calls, qualified package calls, and
//     method calls on concrete receivers;
//   - interface dispatch: a call through an interface method fans out to
//     the matching method of every module type that satisfies the
//     interface (the satisfaction set), plus the abstract interface
//     method itself;
//   - function values: a call through a func-typed variable fans out to
//     every module function whose address is taken somewhere in the
//     module and whose signature is identical.
//
// Function literals are attributed to their enclosing declaration:
// a call inside a closure becomes an edge from the named function that
// lexically contains it. Reflection, unresolved function values and
// calls from package-level variable initializers are invisible.

// EdgeKind classifies how a call edge was resolved.
type EdgeKind uint8

// Edge kinds.
const (
	// EdgeStatic is a direct call to a known function or method.
	EdgeStatic EdgeKind = iota
	// EdgeInterface is a dispatch through an interface method: one edge
	// to the abstract method plus one per satisfying module type.
	EdgeInterface
	// EdgeFuncValue is a call through a func-typed value, resolved to
	// the address-taken functions with an identical signature.
	EdgeFuncValue
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeInterface:
		return "interface"
	case EdgeFuncValue:
		return "funcvalue"
	default:
		return "static"
	}
}

// Edge is one resolved call site.
type Edge struct {
	Caller *FuncNode
	Callee *FuncNode
	// Pos is the call site within the caller's body.
	Pos token.Pos
	// Kind records how the callee was resolved.
	Kind EdgeKind
	// Go marks a `go` statement: the callee runs on a new goroutine.
	Go bool
}

// FuncNode is one function in the graph. Module functions carry their
// declaration and package; functions outside the module (standard
// library, abstract interface methods) are leaves with Decl == nil.
type FuncNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl // nil outside the module
	Pkg  *Package      // nil outside the module
	Out  []*Edge
}

// InModule reports whether the node's body is available for analysis.
func (n *FuncNode) InModule() bool { return n.Decl != nil && n.Decl.Body != nil }

// ShortName renders "pkg.(*Recv).Name" with the package base name.
func (n *FuncNode) ShortName() string { return shortFuncName(n.Fn) }

func shortFuncName(fn *types.Func) string {
	name := fn.Name()
	sig, _ := fn.Type().(*types.Signature)
	pkgBase := ""
	if fn.Pkg() != nil {
		p := fn.Pkg().Path()
		pkgBase = p[strings.LastIndex(p, "/")+1:] + "."
	}
	if sig != nil && sig.Recv() != nil {
		recv := sig.Recv().Type()
		ptr := ""
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
			ptr = "*"
		}
		switch r := recv.(type) {
		case *types.Named:
			return fmt.Sprintf("%s(%s%s).%s", pkgBase, ptr, r.Obj().Name(), name)
		case *types.Interface:
			return fmt.Sprintf("%s(interface).%s", pkgBase, name)
		}
	}
	return pkgBase + name
}

// CallGraph is the module-wide graph.
type CallGraph struct {
	Fset  *token.FileSet
	nodes map[*types.Func]*FuncNode
	// implCache memoizes interface-method satisfaction sets.
	implCache map[implKey][]*types.Func
	// allTypes lists every non-interface named type of the module, in
	// deterministic (type-string) order, for satisfaction scans.
	allTypes []*types.Named
	// addrTaken holds every function used as a value somewhere in the
	// module — the candidate targets of function-value calls.
	addrTaken map[*types.Func]bool
}

type implKey struct {
	iface *types.Interface
	name  string
}

// Node returns (creating on demand) the node for fn.
func (g *CallGraph) Node(fn *types.Func) *FuncNode {
	if n, ok := g.nodes[fn]; ok {
		return n
	}
	n := &FuncNode{Fn: fn}
	g.nodes[fn] = n
	return n
}

// Nodes returns every node sorted by name (module nodes first), for
// deterministic iteration.
func (g *CallGraph) Nodes() []*FuncNode {
	out := make([]*FuncNode, 0, len(g.nodes))
	//csecg:orderok nodes are sorted immediately below
	for _, n := range g.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool {
		if a, b := out[i].InModule(), out[j].InModule(); a != b {
			return a
		}
		return out[i].ShortName() < out[j].ShortName()
	})
	return out
}

// PathTo runs a breadth-first search from root and returns the shortest
// edge path to the first node for which offends returns a non-empty
// description (and that description), traversing only module-internal
// bodies. through filters edges (return false to skip a call site, e.g.
// one waived by a directive). Returns nil when nothing offending is
// reachable.
func (g *CallGraph) PathTo(root *FuncNode, offends func(*FuncNode) string, through func(*Edge) bool) ([]*Edge, string) {
	type item struct {
		node *FuncNode
		path []*Edge
	}
	seen := map[*FuncNode]bool{root: true}
	queue := []item{{node: root}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		for _, e := range it.node.Out {
			if through != nil && !through(e) {
				continue
			}
			next := e.Callee
			if seen[next] {
				continue
			}
			seen[next] = true
			path := append(append([]*Edge(nil), it.path...), e)
			if desc := offends(next); desc != "" {
				return path, desc
			}
			if next.InModule() {
				queue = append(queue, item{node: next, path: path})
			}
		}
	}
	return nil, ""
}

// FormatChain renders root and an edge path as "a → b → c".
func FormatChain(root *FuncNode, path []*Edge) string {
	var b strings.Builder
	b.WriteString(root.ShortName())
	for _, e := range path {
		b.WriteString(" → ")
		b.WriteString(e.Callee.ShortName())
		if e.Kind != EdgeStatic {
			fmt.Fprintf(&b, " (%s)", e.Kind)
		}
	}
	return b.String()
}

// WriteDOT dumps the graph in Graphviz DOT form: solid edges are static
// calls, dashed interface dispatch, dotted function-value resolution;
// bold edges mark `go` statements. Out-of-module leaves are drawn grey.
func (g *CallGraph) WriteDOT(w io.Writer) error {
	var b strings.Builder
	b.WriteString("digraph csecg {\n\trankdir=LR;\n\tnode [shape=box, fontsize=10];\n")
	for _, n := range g.Nodes() {
		if !n.InModule() && len(n.Out) == 0 {
			// Declared only as an edge target below.
			continue
		}
		attr := ""
		if !n.InModule() {
			attr = " [color=grey, fontcolor=grey]"
		}
		fmt.Fprintf(&b, "\t%q%s;\n", n.ShortName(), attr)
	}
	for _, n := range g.Nodes() {
		for _, e := range n.Out {
			var attrs []string
			switch e.Kind {
			case EdgeInterface:
				attrs = append(attrs, "style=dashed")
			case EdgeFuncValue:
				attrs = append(attrs, "style=dotted")
			}
			if e.Go {
				attrs = append(attrs, "penwidth=2")
			}
			if !e.Callee.InModule() {
				attrs = append(attrs, "color=grey")
			}
			suffix := ""
			if len(attrs) > 0 {
				suffix = " [" + strings.Join(attrs, ", ") + "]"
			}
			fmt.Fprintf(&b, "\t%q -> %q%s;\n", n.ShortName(), e.Callee.ShortName(), suffix)
		}
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// BuildCallGraph resolves the call graph of every package in mod.
func BuildCallGraph(mod *Module) *CallGraph {
	g := &CallGraph{
		Fset:      mod.Fset,
		nodes:     map[*types.Func]*FuncNode{},
		implCache: map[implKey][]*types.Func{},
		addrTaken: map[*types.Func]bool{},
	}
	g.collectTypes(mod)
	g.collectAddrTaken(mod)
	for _, pkg := range mod.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := g.Node(fn)
				node.Decl = fd
				node.Pkg = pkg
				if fd.Body != nil {
					g.walkBody(node, pkg)
				}
			}
		}
	}
	return g
}

// collectTypes gathers the module's concrete named types, sorted for
// deterministic satisfaction scans.
func (g *CallGraph) collectTypes(mod *Module) {
	for _, pkg := range mod.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			g.allTypes = append(g.allTypes, named)
		}
	}
	sort.Slice(g.allTypes, func(i, j int) bool {
		return g.allTypes[i].String() < g.allTypes[j].String()
	})
}

// collectAddrTaken records every named function referenced outside call
// position — the possible targets of a function-value call.
func (g *CallGraph) collectAddrTaken(mod *Module) {
	for _, pkg := range mod.Pkgs {
		info := pkg.Info
		// Idents appearing directly as a call's Fun (or its selector).
		callPos := map[*ast.Ident]bool{}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch fun := unparen(call.Fun).(type) {
				case *ast.Ident:
					callPos[fun] = true
				case *ast.SelectorExpr:
					callPos[fun.Sel] = true
				}
				return true
			})
		}
		//csecg:orderok populates a set; membership is order-independent
		for id, obj := range info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || callPos[id] {
				continue
			}
			g.addrTaken[fn] = true
		}
	}
}

// walkBody resolves every call inside one declaration (closures
// included, attributed to the enclosing declaration).
func (g *CallGraph) walkBody(caller *FuncNode, pkg *Package) {
	info := pkg.Info
	var walk func(n ast.Node, inGo bool)
	walk = func(root ast.Node, inGo bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				g.resolveCall(caller, pkg, n.Call, true)
				// Descend into the call's children manually so the call
				// itself is not resolved twice.
				for _, arg := range n.Call.Args {
					walk(arg, inGo)
				}
				if lit, ok := unparen(n.Call.Fun).(*ast.FuncLit); ok {
					walk(lit.Body, true)
				}
				return false
			case *ast.CallExpr:
				g.resolveCall(caller, pkg, n, inGo)
			}
			return true
		})
	}
	walk(caller.Decl.Body, false)
	_ = info
}

// resolveCall adds the edges for one call expression.
func (g *CallGraph) resolveCall(caller *FuncNode, pkg *Package, call *ast.CallExpr, isGo bool) {
	info := pkg.Info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion
	}
	addEdge := func(fn *types.Func, kind EdgeKind) {
		e := &Edge{Caller: caller, Callee: g.Node(fn), Pos: call.Pos(), Kind: kind, Go: isGo}
		caller.Out = append(caller.Out, e)
	}
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Func:
			addEdge(obj, EdgeStatic)
			return
		case *types.Builtin, *types.TypeName, nil:
			return
		}
		// Func-typed variable: dynamic call.
		g.resolveFuncValue(caller, call, info)
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			m, ok := sel.Obj().(*types.Func)
			if !ok {
				return
			}
			recvSig, _ := m.Type().(*types.Signature)
			if recvSig != nil && recvSig.Recv() != nil {
				if iface, ok := recvSig.Recv().Type().Underlying().(*types.Interface); ok {
					// Interface dispatch: abstract method plus the
					// satisfaction set.
					addEdge(m, EdgeInterface)
					for _, impl := range g.implementers(iface, m) {
						addEdge(impl, EdgeInterface)
					}
					return
				}
			}
			addEdge(m, EdgeStatic)
			return
		}
		if obj, ok := info.Uses[fun.Sel].(*types.Func); ok {
			addEdge(obj, EdgeStatic) // qualified package call
			return
		}
		// Func-typed field or variable reached through a selector.
		g.resolveFuncValue(caller, call, info)
	case *ast.FuncLit:
		// Immediately-invoked literal; body already attributed to caller.
	default:
		g.resolveFuncValue(caller, call, info)
	}
}

// resolveFuncValue links a dynamic call to every address-taken function
// with an identical signature.
func (g *CallGraph) resolveFuncValue(caller *FuncNode, call *ast.CallExpr, info *types.Info) {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	var targets []*types.Func
	//csecg:orderok candidates are sorted immediately below
	for fn := range g.addrTaken {
		fnSig, ok := fn.Type().(*types.Signature)
		if !ok {
			continue
		}
		// Compare parameter/result tuples; a method value's signature
		// already excludes the receiver.
		if types.Identical(stripRecv(fnSig), stripRecv(sig)) {
			targets = append(targets, fn)
		}
	}
	sort.Slice(targets, func(i, j int) bool {
		return targets[i].FullName() < targets[j].FullName()
	})
	for _, fn := range targets {
		caller.Out = append(caller.Out, &Edge{Caller: caller, Callee: g.Node(fn), Pos: call.Pos(), Kind: EdgeFuncValue, Go: false})
	}
}

// stripRecv normalizes a signature to its parameter/result tuples.
func stripRecv(sig *types.Signature) *types.Signature {
	if sig.Recv() == nil {
		return sig
	}
	return types.NewSignatureType(nil, nil, nil, sig.Params(), sig.Results(), sig.Variadic())
}

// implementers returns the module methods satisfying iface's method m.
func (g *CallGraph) implementers(iface *types.Interface, m *types.Func) []*types.Func {
	key := implKey{iface: iface, name: m.Name()}
	if impls, ok := g.implCache[key]; ok {
		return impls
	}
	var impls []*types.Func
	for _, named := range g.allTypes {
		var recv types.Type
		switch {
		case types.Implements(named, iface):
			recv = named
		case types.Implements(types.NewPointer(named), iface):
			recv = types.NewPointer(named)
		default:
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(recv, true, m.Pkg(), m.Name())
		if fn, ok := obj.(*types.Func); ok {
			impls = append(impls, fn)
		}
	}
	g.implCache[key] = impls
	return impls
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
