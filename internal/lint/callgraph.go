// Static call graph over the loaded module, rooted at the cycle
// kernel's tick entry points. The allocation contract (hotpath.go)
// runs over the reachable set — the "hot set" — so a new allocation
// is caught wherever it hides, not just in the function that
// textually contains the tick loop.
//
// Edge kinds:
//
//   - direct: `f()` / `x.M()` resolved through go/types to a declared
//     function or concrete method.
//   - interface dispatch: `x.M()` where x is interface-typed fans out
//     to method M of every named type in the module that implements
//     the interface (sound over-approximation; the simulator's Buffer
//     and CreditView plug points are exactly this shape).
//   - function values: a function or method referenced as a value
//     (passed as an argument, assigned, stored in a composite
//     literal) is treated as called by the referencing function —
//     the callback idiom of runSharded and traffic.Generator.Tick.
//   - func fields: a call through a func-typed struct field fans out
//     to every function value assigned to that field anywhere in the
//     module (the flitLink.deliver closures wired in network.New).
//   - literals: a func literal is an edge target of its enclosing
//     function (defining a closure on the tick path almost always
//     means running — and allocating — it there).
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// rootSpec names a hot-set root by package name, receiver base type
// and method name. Matching is name-based so the linter's fixture
// suite can declare its own roots.
type rootSpec struct {
	pkg, recv, name string
}

// hotRoots are the tick entry points of DESIGN.md §13: the cycle
// kernel's Step and the router's compute stage. Buffer operations and
// every other per-cycle path are reached from these transitively.
var hotRoots = []rootSpec{
	{pkg: "network", recv: "Network", name: "Step"},
	{pkg: "router", recv: "Router", name: "Tick"},
}

// cgNode is one function in the call graph: a declared function or
// method (decl != nil) or a function literal (lit != nil).
type cgNode struct {
	pkg  *Package
	file *ast.File
	decl *ast.FuncDecl
	lit  *ast.FuncLit
	fn   *types.Func // nil for literals

	name    string // display name, e.g. "Network.Step" or "New.func"
	callees []*cgNode

	hot  bool
	root string // name of the root whose BFS reached this node
}

// body returns the node's function body.
func (n *cgNode) body() *ast.BlockStmt {
	if n.decl != nil {
		return n.decl.Body
	}
	return n.lit.Body
}

// callGraph is the module-wide graph plus the indexes edge
// resolution needs.
type callGraph struct {
	fset *token.FileSet

	pkgs  []*Package
	nodes []*cgNode // all nodes, deterministic order

	byLit  map[*ast.FuncLit]*cgNode
	byFunc map[*types.Func]*cgNode

	// fieldAssigns maps a func-typed struct field to every function
	// value assigned to it anywhere in the module.
	fieldAssigns map[*types.Var][]*cgNode

	// namedTypes are the module's named (non-interface) types, for
	// interface-dispatch resolution.
	namedTypes []*types.Named

	// implCache memoizes interface-method fan-out.
	implCache map[*types.Func][]*cgNode
}

// buildCallGraph constructs the graph over every module package the
// loader checked (linted and dependency alike, test variants aside) and
// marks the hot set from hotRoots.
func buildCallGraph(l *loader) *callGraph {
	g := &callGraph{
		fset:         l.fset,
		byLit:        map[*ast.FuncLit]*cgNode{},
		byFunc:       map[*types.Func]*cgNode{},
		fieldAssigns: map[*types.Var][]*cgNode{},
		implCache:    map[*types.Func][]*cgNode{},
	}
	for _, p := range l.pkgs {
		if p.ForTest == "" {
			g.pkgs = append(g.pkgs, p)
		}
	}
	sort.Slice(g.pkgs, func(i, j int) bool { return g.pkgs[i].ImportPath < g.pkgs[j].ImportPath })
	g.collectNodes()
	g.collectNamedTypes()
	g.collectFieldAssigns()
	for _, n := range g.nodes {
		g.addEdges(n)
	}
	g.markHot()
	return g
}

// funcDisplayName renders "Recv.Name" for methods, "Name" otherwise.
func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	return recvTypeName(fd.Recv.List[0].Type) + "." + fd.Name.Name
}

// recvTypeName strips pointers and generics from a receiver type
// expression, leaving the base type name.
func recvTypeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(t.X)
	case *ast.IndexExpr:
		return recvTypeName(t.X)
	case *ast.IndexListExpr:
		return recvTypeName(t.X)
	case *ast.Ident:
		return t.Name
	}
	return ""
}

// collectNodes creates a node per function declaration and per func
// literal, in file order.
func (g *callGraph) collectNodes() {
	for _, p := range g.pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				n := &cgNode{pkg: p, file: f, decl: fd, name: funcDisplayName(fd)}
				if obj, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
					n.fn = obj
					g.byFunc[obj] = n
				}
				g.nodes = append(g.nodes, n)
				encl := n
				ast.Inspect(fd.Body, func(x ast.Node) bool {
					lit, ok := x.(*ast.FuncLit)
					if !ok {
						return true
					}
					ln := &cgNode{pkg: p, file: f, lit: lit, name: encl.name + ".func"}
					g.byLit[lit] = ln
					g.nodes = append(g.nodes, ln)
					return true
				})
			}
		}
	}
}

// collectNamedTypes gathers the concrete named types of every module
// package for interface-dispatch resolution.
func (g *callGraph) collectNamedTypes() {
	for _, p := range g.pkgs {
		if p.Types == nil {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			g.namedTypes = append(g.namedTypes, named)
		}
	}
}

// funcValueNode resolves an expression used as a function value — a
// func literal, a function ident, or a method value — to its node.
func (g *callGraph) funcValueNode(info *types.Info, e ast.Expr) *cgNode {
	switch v := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		return g.byLit[v]
	case *ast.Ident:
		if fn, ok := info.Uses[v].(*types.Func); ok {
			return g.byFunc[fn]
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[v.Sel].(*types.Func); ok {
			return g.byFunc[fn]
		}
	}
	return nil
}

// collectFieldAssigns indexes every function value stored into a
// struct field: `x.F = fn`, `T{F: fn}`.
func (g *callGraph) collectFieldAssigns() {
	for _, p := range g.pkgs {
		info := p.Info
		for _, f := range p.Files {
			ast.Inspect(f, func(x ast.Node) bool {
				switch s := x.(type) {
				case *ast.AssignStmt:
					for i, lhs := range s.Lhs {
						if i >= len(s.Rhs) {
							break
						}
						sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
						if !ok {
							continue
						}
						field, ok := info.Uses[sel.Sel].(*types.Var)
						if !ok || !field.IsField() {
							continue
						}
						if n := g.funcValueNode(info, s.Rhs[i]); n != nil {
							g.fieldAssigns[field] = append(g.fieldAssigns[field], n)
						}
					}
				case *ast.CompositeLit:
					for _, elt := range s.Elts {
						kv, ok := elt.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						key, ok := kv.Key.(*ast.Ident)
						if !ok {
							continue
						}
						field, ok := info.Uses[key].(*types.Var)
						if !ok || !field.IsField() {
							continue
						}
						if n := g.funcValueNode(info, kv.Value); n != nil {
							g.fieldAssigns[field] = append(g.fieldAssigns[field], n)
						}
					}
				}
				return true
			})
		}
	}
}

// implementations fans an interface method out to the matching
// concrete methods of every named type in the module.
func (g *callGraph) implementations(m *types.Func) []*cgNode {
	if cached, ok := g.implCache[m]; ok {
		return cached
	}
	sig, ok := m.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*cgNode
	for _, named := range g.namedTypes {
		var impl types.Type = named
		if !types.Implements(impl, iface) {
			impl = types.NewPointer(named)
			if !types.Implements(impl, iface) {
				continue
			}
		}
		obj, _, _ := types.LookupFieldOrMethod(impl, true, m.Pkg(), m.Name())
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if n := g.byFunc[fn]; n != nil {
			out = append(out, n)
		}
	}
	g.implCache[m] = out
	return out
}

// addEdges walks one node's body (literals excluded — they are their
// own nodes) and records its callees.
func (g *callGraph) addEdges(n *cgNode) {
	info := n.pkg.Info
	add := func(callee *cgNode) {
		if callee != nil {
			n.callees = append(n.callees, callee)
		}
	}
	// funNodes marks the Fun operand of each call so a function
	// reference used as a callee is not double-counted as a value.
	funNodes := map[ast.Node]bool{}
	body := n.body()
	ast.Inspect(body, func(x ast.Node) bool {
		if lit, ok := x.(*ast.FuncLit); ok && lit != n.lit {
			add(g.byLit[lit]) // defining a closure on the hot path
			return false      // its body is the literal node's own walk
		}
		switch e := x.(type) {
		case *ast.CallExpr:
			fun := ast.Unparen(e.Fun)
			funNodes[fun] = true
			switch fe := fun.(type) {
			case *ast.Ident:
				if fn, ok := info.Uses[fe].(*types.Func); ok {
					add(g.byFunc[fn])
				}
			case *ast.SelectorExpr:
				funNodes[fe.Sel] = true
				switch obj := info.Uses[fe.Sel].(type) {
				case *types.Func:
					sig, _ := obj.Type().(*types.Signature)
					if sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
						for _, impl := range g.implementations(obj) {
							add(impl)
						}
					} else {
						add(g.byFunc[obj])
					}
				case *types.Var:
					// Call through a func-typed field: fan out to every
					// value ever assigned to it.
					if obj.IsField() {
						for _, target := range g.fieldAssigns[obj] {
							add(target)
						}
					}
				}
			}
		case *ast.Ident:
			if funNodes[e] {
				return true
			}
			if fn, ok := info.Uses[e].(*types.Func); ok {
				add(g.byFunc[fn]) // function value
			}
		case *ast.SelectorExpr:
			if funNodes[e] || funNodes[e.Sel] {
				return true
			}
			switch obj := info.Uses[e.Sel].(type) {
			case *types.Func:
				add(g.byFunc[obj]) // method value
			case *types.Var:
				// A func-typed field referenced as a value (passed as a
				// callback): whoever receives it may call it, so fan out
				// to every function assigned to the field.
				if obj.IsField() {
					if _, ok := obj.Type().Underlying().(*types.Signature); ok {
						for _, target := range g.fieldAssigns[obj] {
							add(target)
						}
					}
				}
			}
		}
		return true
	})
}

// markHot BFS-marks every node reachable from the root specs.
func (g *callGraph) markHot() {
	var queue []*cgNode
	for _, n := range g.nodes {
		if n.decl == nil || n.decl.Recv == nil {
			continue
		}
		for _, spec := range hotRoots {
			if n.pkg.Name == spec.pkg && n.decl.Name.Name == spec.name &&
				recvTypeName(n.decl.Recv.List[0].Type) == spec.recv {
				n.hot = true
				n.root = n.name
				queue = append(queue, n)
			}
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, c := range n.callees {
			if !c.hot {
				c.hot = true
				c.root = n.root
				queue = append(queue, c)
			}
		}
	}
}

// hotNodes returns the hot set restricted to packages satisfying
// keep, in deterministic (position) order.
func (g *callGraph) hotNodes(keep func(p *Package) bool) []*cgNode {
	var out []*cgNode
	for _, n := range g.nodes {
		if n.hot && keep(n.pkg) {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := g.fset.Position(out[i].body().Pos()), g.fset.Position(out[j].body().Pos())
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Offset < pj.Offset
	})
	return out
}
