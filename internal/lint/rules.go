package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// Rule names, as printed in diagnostics and accepted by
// //vichar:nolint annotations.
const (
	RuleMapRange       = "map-range"
	RuleAmbientEntropy = "ambient-entropy"
	RuleCheckedErrors  = "checked-errors"
	RulePanics         = "panic-discipline"
	RuleConcurrency    = "concurrency-ownership"
)

// shardExecutorFile is the one file under internal/ allowed to spawn
// goroutines: the two-phase cycle kernel's lane executor (DESIGN.md
// §10). Everywhere else a `go` statement bypasses the kernel's
// ownership contract and its deterministic merge, so the
// concurrency-ownership rule rejects it unless the site carries a
// //vichar:nolint concurrency-ownership justification.
const shardExecutorFile = "internal/network/shards.go"

// deterministicPkgs are the simulator-core packages whose tick-path
// code must be bit-reproducible for a given seed; the map-range,
// checked-errors and panic-discipline rules apply only to them.
var deterministicPkgs = map[string]bool{
	"router":  true,
	"network": true,
	"arbiter": true,
	"core":    true,
	"buffers": true,
	"routing": true,
	"metrics": true,
	"faults":  true,
	"txn":     true,
	"rng":     true,
	"traffic": true,
}

// Diagnostic is one rule violation.
type Diagnostic struct {
	Pos  token.Position
	Rule string
	Msg  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Msg)
}

// annotation is one //vichar:<kind> <reason> suppression comment.
type annotation struct {
	kind   string
	reason string // first token after kind for nolint; rest for others
	rule   string // nolint only: the named rule
}

// annotations indexes a file's //vichar: comments by line.
type annotations map[int][]annotation

// parseAnnotations collects the //vichar: comments of a file.
func parseAnnotations(fset *token.FileSet, f *ast.File) annotations {
	out := annotations{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//vichar:")
			if !ok {
				continue
			}
			fields := strings.Fields(text)
			if len(fields) == 0 {
				continue
			}
			a := annotation{kind: fields[0], reason: strings.TrimSpace(strings.Join(fields[1:], " "))}
			if a.kind == "nolint" && len(fields) >= 2 {
				a.rule = fields[1]
				a.reason = strings.TrimSpace(strings.Join(fields[2:], " "))
			}
			line := fset.Position(c.Pos()).Line
			out[line] = append(out[line], a)
		}
	}
	return out
}

// waiverKind names the dedicated //vichar:<kind> annotation of the
// rules that have one; //vichar:nolint <rule> waives any rule.
var waiverKind = map[string]string{RuleMapRange: "ordered", RulePanics: "invariant", RuleHotPathAlloc: "alloc"}

// has reports whether an annotation on exactly this line waives the
// rule. Annotations must carry a justification; a bare marker does
// not suppress.
func (ann annotations) has(line int, rule string) bool {
	for _, a := range ann[line] {
		if a.reason != "" && (a.kind == waiverKind[rule] || (a.kind == "nolint" && a.rule == rule)) {
			return true
		}
	}
	return false
}

// suppresses reports whether an annotation on the diagnostic's line
// (or the line directly above, for doc-comment style) waives the
// rule. The allocation rules match waivers to statements instead
// (hotpath.go).
func (ann annotations) suppresses(rule string, line int) bool {
	return ann.has(line, rule) || ann.has(line-1, rule)
}

// checker runs the rules over one loaded package.
type checker struct {
	fset       *token.FileSet
	modulePath string
	pkg        *Package
	diags      *[]Diagnostic
}

func (c *checker) report(rule string, pos token.Pos, format string, args ...any) {
	p := c.fset.Position(pos)
	*c.diags = append(*c.diags, Diagnostic{Pos: p, Rule: rule, Msg: fmt.Sprintf(format, args...)})
}

// run applies every applicable rule to the package. A test variant
// repeats its package's files: only its _test.go files are new, and
// they answer to ambient-entropy alone.
func (c *checker) run() {
	deterministic := deterministicPkgs[c.pkg.Name]
	internal := strings.Contains(c.pkg.ImportPath, "/internal/") ||
		strings.HasSuffix(c.pkg.ImportPath, "/internal")
	test := c.pkg.ForTest != ""
	for _, f := range c.pkg.Files {
		if test && !strings.HasSuffix(c.fset.File(f.Pos()).Name(), "_test.go") {
			continue
		}
		ann := parseAnnotations(c.fset, f)
		c.checkEntropy(f, ann)
		if test {
			continue
		}
		if internal {
			c.checkConcurrency(f, ann)
		}
		if deterministic {
			c.checkMapRange(f, ann)
			c.checkErrors(f, ann)
			c.checkPanics(f, ann)
		}
	}
}

// checkMapRange flags `range` statements over map-typed expressions:
// Go randomizes map iteration order, so any map range on the tick
// path makes two same-seed runs diverge.
func (c *checker) checkMapRange(f *ast.File, ann annotations) {
	info := c.pkg.Info
	ast.Inspect(f, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := info.Types[rs.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		line := c.fset.Position(rs.For).Line
		if ann.suppresses(RuleMapRange, line) {
			return true
		}
		c.report(RuleMapRange, rs.For,
			"range over map %s: iteration order is nondeterministic in a deterministic package; iterate an ordered slice or annotate //vichar:ordered <reason>",
			types.TypeString(tv.Type, types.RelativeTo(c.pkg.Types)))
		return true
	})
}

// checkConcurrency flags `go` statements in internal packages outside
// the shard-executor file. The two-phase cycle kernel's determinism
// argument rests on every parallel region running through
// shardExecutor.run with caller-side index-ordered merges; an ad-hoc
// goroutine anywhere else in the simulator core reintroduces
// scheduling order as a hidden input. Only an explicit
// //vichar:nolint concurrency-ownership <reason> waives the rule.
func (c *checker) checkConcurrency(f *ast.File, ann annotations) {
	name := filepath.ToSlash(c.fset.Position(f.Package).Filename)
	if name == shardExecutorFile || strings.HasSuffix(name, "/"+shardExecutorFile) {
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		line := c.fset.Position(gs.Go).Line
		if ann.suppresses(RuleConcurrency, line) {
			return true
		}
		c.report(RuleConcurrency, gs.Go,
			"go statement outside the shard executor (%s): internal packages must route parallelism through the cycle kernel or annotate //vichar:nolint %s <reason>",
			shardExecutorFile, RuleConcurrency)
		return true
	})
}

// entropyBanned maps ambient-entropy sources to the reason they are
// banned. Constructors of seeded streams (rand.New, rand.NewSource,
// rand.NewZipf) stay allowed: they are exactly how Config.Seed flows
// into the simulator.
func entropyBanned(fn *types.Func) (string, bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return "", false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return "", false // methods on *rand.Rand etc. are the seeded path
	}
	switch pkg.Path() {
	case "math/rand", "math/rand/v2":
		switch fn.Name() {
		case "New", "NewSource", "NewZipf", "NewChaCha8", "NewPCG":
			return "", false
		}
		return fmt.Sprintf("global %s.%s draws from ambient process-wide state", pkg.Name(), fn.Name()), true
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			return fmt.Sprintf("time.%s injects wall-clock entropy", fn.Name()), true
		}
	case "crypto/rand":
		return fmt.Sprintf("crypto/rand.%s is nondeterministic by design", fn.Name()), true
	}
	return "", false
}

// checkEntropy flags uses of ambient entropy sources — global
// math/rand functions and wall-clock reads. All simulator randomness
// must come from internal/rng, seeded from Config.Seed, so a run is a
// pure function of its configuration.
func (c *checker) checkEntropy(f *ast.File, ann annotations) {
	info := c.pkg.Info
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := info.Uses[sel.Sel].(*types.Func)
		if !ok {
			return true
		}
		why, banned := entropyBanned(fn)
		if !banned {
			return true
		}
		line := c.fset.Position(sel.Pos()).Line
		if ann.suppresses(RuleAmbientEntropy, line) {
			return true
		}
		c.report(RuleAmbientEntropy, sel.Pos(),
			"%s; route randomness through a seeded *rand.Rand from config", why)
		return true
	})
}

// errType is the predeclared error interface.
var errType = types.Universe.Lookup("error").Type()

// checkErrors flags statements that call a module-internal function
// returning an error and drop the result on the floor. Buffer and
// pipeline errors encode flow-control violations; ignoring one hides
// a conservation bug. Assigning to blank (`_ = ...`) stays legal as
// an explicit acknowledgement.
func (c *checker) checkErrors(f *ast.File, ann annotations) {
	check := func(call *ast.CallExpr) {
		fn := calleeFunc(c.pkg.Info, call)
		if fn == nil || fn.Pkg() == nil {
			return
		}
		path := fn.Pkg().Path()
		if path != c.modulePath && !strings.HasPrefix(path, c.modulePath+"/") {
			return
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			return
		}
		returnsErr := false
		for i := 0; i < sig.Results().Len(); i++ {
			if types.Identical(sig.Results().At(i).Type(), errType) {
				returnsErr = true
			}
		}
		if !returnsErr {
			return
		}
		line := c.fset.Position(call.Pos()).Line
		if ann.suppresses(RuleCheckedErrors, line) {
			return
		}
		c.report(RuleCheckedErrors, call.Pos(),
			"error result of %s.%s discarded; handle it or assign to _ explicitly", fn.Pkg().Name(), fn.Name())
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				check(call)
			}
		case *ast.GoStmt:
			check(s.Call)
		case *ast.DeferStmt:
			check(s.Call)
		}
		return true
	})
}

// calleeFunc resolves the called function or method object, or nil
// for builtins, conversions and calls through function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// constructorName reports whether the function name marks a
// constructor (New*, new*) or initializer (init, Init), where
// argument-validation panics are the package convention.
func constructorName(name string) bool {
	return strings.HasPrefix(name, "New") || strings.HasPrefix(name, "new") || name == "init" || name == "Init"
}

// checkPanics enforces panic discipline: in the deterministic
// packages a panic is legal only inside a constructor (invalid
// construction parameters) or at a site annotated
// //vichar:invariant <reason> (a "cannot happen" bookkeeping
// violation). Everything else must return an error.
func (c *checker) checkPanics(f *ast.File, ann annotations) {
	info := c.pkg.Info
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		if constructorName(fd.Name.Name) {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || id.Name != "panic" {
				return true
			}
			if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
				return true
			}
			line := c.fset.Position(call.Pos()).Line
			if ann.suppresses(RulePanics, line) {
				return true
			}
			c.report(RulePanics, call.Pos(),
				"panic outside a constructor in %s; return an error or annotate the invariant with //vichar:invariant <reason>", fd.Name.Name)
			return true
		})
	}
}
