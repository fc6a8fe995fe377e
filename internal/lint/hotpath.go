// The hot-path allocation contract (DESIGN.md §13), start to finish:
//
//	call graph → hot extents → (compiler report ∪ five constructs) − waived statements
//
// The compiler is the detector. `go build -gcflags='-m -m'` states
// every heap decision it takes, so a composite literal, make, new,
// closure, method value, interface box or fmt call that really
// allocates inside a function reachable from the tick roots is an
// escape-audit finding, and one that stays on the stack is not. What
// the escape report cannot see is kept as the syntactic rule
// hot-path-alloc — five constructs that allocate at run time without
// the report saying so: append growing its backing array, a string
// concatenation or a string↔byte/rune-slice conversion longer than
// the 32-byte stack buffer, a map literal past eight entries, and
// make(chan).
//
// Either kind of finding is accepted by a reasoned //vichar:alloc on
// the statement that allocates and by nothing else. A waiver explains
// exactly one statement: written after code it covers its own line;
// written on a line of its own it covers the simple statement that
// starts on the next line, through that statement's last line (but
// not into the body of a func literal). There is no slack around it,
// so an allocation on the line after a waived one is still a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Allocation rule names. //vichar:alloc waives both.
const (
	RuleHotPathAlloc = "hot-path-alloc"
	RuleEscapeAudit  = "escape-audit"
)

// hotFunc is one hot function's body extent.
type hotFunc struct {
	name, root string // display name; witness tick root
	start, end int    // first and last line of the body
	lit        bool   // a func literal, whose extent starts at the literal itself
}

// hotSet is what the compiler's report is matched against, per
// absolute file name.
type hotSet struct {
	funcs  map[string][]hotFunc
	waived map[string]map[int]bool // lines of waived statements and of panic calls
}

func (h *hotSet) waive(file string, from, to int) {
	m := h.waived[file]
	if m == nil {
		m = map[int]bool{}
		h.waived[file] = m
	}
	for l := from; l <= to; l++ {
		m[l] = true
	}
}

// checkHotPaths runs the allocation contract over the hot functions
// of the linted deterministic packages.
func checkHotPaths(l *loader, g *callGraph, linted map[string]bool, diags *[]Diagnostic) error {
	hot := &hotSet{funcs: map[string][]hotFunc{}, waived: map[string]map[int]bool{}}
	ann := map[*ast.File]annotations{}
	dirs := map[string]bool{}
	for _, n := range g.hotNodes(func(p *Package) bool { return deterministicPkgs[p.Name] && linted[p.ImportPath] }) {
		if ann[n.file] == nil {
			ann[n.file] = parseAnnotations(l.fset, n.file)
		}
		dirs[n.pkg.Dir] = true
		*diags = append(*diags, hot.scan(l.fset, n, ann[n.file])...)
	}
	if len(dirs) == 0 {
		return nil
	}
	args := []string{"build", "-gcflags=-m -m"}
	for dir := range dirs {
		args = append(args, dir)
	}
	sort.Strings(args[2:])
	cmd := exec.Command("go", args...)
	cmd.Dir = l.moduleRoot
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("lint: escape audit build failed: %v\n%s", err, out)
	}
	*diags = append(*diags, auditEscapes(hot, parseEscapeOutput(l.moduleRoot, string(out)))...)
	return nil
}

// scan walks one hot function body. It records the body's extent and
// the lines its waivers and panic calls cover, and returns a finding
// for each unwaived one of the five constructs outside a panic call
// (terminating error paths, already policed by panic-discipline).
// Nested func literals are their own hot nodes and are skipped.
func (h *hotSet) scan(fset *token.FileSet, n *cgNode, ann annotations) []Diagnostic {
	info := n.pkg.Info
	line := func(p token.Pos) int { return fset.Position(p).Line }
	file := fset.Position(n.body().Pos()).Filename
	start, end := line(n.body().Pos()), line(n.body().End())
	h.funcs[file] = append(h.funcs[file], hotFunc{name: n.name, root: n.root, start: start, end: end, lit: n.lit != nil})

	var found []Diagnostic
	flag := func(pos token.Pos, what string) {
		found = append(found, Diagnostic{Pos: fset.Position(pos), Rule: RuleHotPathAlloc,
			Msg: fmt.Sprintf("%s on the tick path (%s reachable from %s); hoist it to construction time, reuse a scratch buffer, or annotate //vichar:alloc <reason>",
				what, n.name, n.root)})
	}
	code := map[int]bool{}       // lines on which some syntax node starts or ends
	stmtAt := map[int]ast.Stmt{} // first simple statement starting on each line
	ast.Inspect(n.body(), func(x ast.Node) bool {
		if _, comment := x.(*ast.CommentGroup); x == nil || comment {
			return false
		}
		code[line(x.Pos())], code[line(x.End()-1)] = true, true
		switch e := x.(type) {
		case *ast.FuncLit:
			return e == n.lit
		case *ast.AssignStmt, *ast.ExprStmt, *ast.ReturnStmt, *ast.GoStmt, *ast.DeferStmt, *ast.SendStmt, *ast.IncDecStmt, *ast.DeclStmt:
			if l := line(x.Pos()); stmtAt[l] == nil {
				stmtAt[l] = x.(ast.Stmt)
			}
		case *ast.CompositeLit:
			if tv, ok := info.Types[e]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					flag(e.Pos(), "map literal allocates past eight entries")
				}
			}
		case *ast.BinaryExpr:
			if tv, ok := info.Types[e]; ok && e.Op == token.ADD && tv.Value == nil && isString(tv.Type) {
				flag(e.OpPos, "string concatenation allocates past 32 bytes")
			}
		case *ast.CallExpr:
			fun := ast.Unparen(e.Fun)
			if id, ok := fun.(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok {
					switch b.Name() {
					case "panic":
						// The compiler heap-allocates a panic's boxed
						// argument; the whole call is exempt.
						h.waive(file, line(e.Pos()), line(e.End()))
						return false
					case "append":
						flag(e.Pos(), "append may grow its backing array")
					case "make":
						if _, isChan := info.Types[e].Type.Underlying().(*types.Chan); isChan {
							flag(e.Pos(), "make(chan) allocates the channel")
						}
					}
					return true
				}
			}
			if tv, ok := info.Types[fun]; ok && tv.IsType() && len(e.Args) == 1 {
				if from, ok := info.Types[e.Args[0]]; ok && copyingConversion(from.Type, tv.Type) {
					flag(e.Pos(), "conversion between string and byte/rune slice allocates past 32 bytes")
				}
			}
		}
		return true
	})

	for l := start; l <= end; l++ {
		if !ann.has(l, RuleHotPathAlloc) {
			continue
		}
		if s := stmtAt[l+1]; s != nil && !code[l] {
			last := s.End()
			ast.Inspect(s, func(x ast.Node) bool {
				if lit, ok := x.(*ast.FuncLit); ok && lit.Body.Lbrace < last {
					last = lit.Body.Lbrace
				}
				return true
			})
			h.waive(file, l+1, line(last))
		} else {
			h.waive(file, l, l)
		}
	}
	unwaived := found[:0]
	for _, d := range found {
		if !h.waived[file][d.Pos.Line] {
			unwaived = append(unwaived, d)
		}
	}
	return unwaived
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// copyingConversion reports whether a conversion from -> to copies
// its payload (string <-> []byte / []rune).
func copyingConversion(from, to types.Type) bool {
	isByteOrRune := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isString(from) && isByteOrRune(to)) || (isByteOrRune(from) && isString(to))
}

// escapeLine is one parsed compiler diagnostic.
type escapeLine struct {
	file string
	line int
	msg  string
}

// parseEscapeOutput extracts the heap decisions ("escapes to heap",
// "moved to heap") from the compiler output, normalizing file paths
// to absolute.
func parseEscapeOutput(moduleRoot, out string) []escapeLine {
	var lines []escapeLine
	seen := map[escapeLine]bool{}
	for _, raw := range strings.Split(out, "\n") {
		raw = strings.TrimSpace(raw)
		if !strings.Contains(raw, "escapes to heap") && !strings.Contains(raw, "moved to heap") {
			continue
		}
		if strings.Contains(raw, "does not escape") {
			continue
		}
		// file.go:line:col: message
		parts := strings.SplitN(raw, ":", 4)
		if len(parts) < 4 {
			continue
		}
		line, err := strconv.Atoi(parts[1])
		if err != nil {
			continue
		}
		file := parts[0]
		if !filepath.IsAbs(file) {
			file = filepath.Join(moduleRoot, filepath.FromSlash(file))
		}
		// -m -m restates a decision with a trailing colon before the
		// flow explanation, and once more per inlined copy; normalize
		// and dedupe.
		el := escapeLine{
			file: filepath.Clean(file),
			line: line,
			msg:  strings.TrimSuffix(strings.TrimSpace(parts[3]), ":"),
		}
		if seen[el] {
			continue
		}
		seen[el] = true
		lines = append(lines, el)
	}
	return lines
}

// auditEscapes returns a finding for every compiler-reported heap
// decision inside a hot extent that no waived statement or panic
// call covers. An allocation inlined from another package is
// reported at the call site, and that is where its waiver goes.
func auditEscapes(hot *hotSet, lines []escapeLine) []Diagnostic {
	var diags []Diagnostic
	for _, el := range lines {
		// A quoted literal "escaping" is a string constant boxed into
		// an interface: the box points at read-only data and nothing
		// is allocated.
		_, err := strconv.Unquote(strings.TrimSuffix(el.msg, " escapes to heap"))
		if err == nil || hot.waived[el.file][el.line] {
			continue
		}
		for _, f := range hot.funcs[el.file] {
			if el.line < f.start || el.line > f.end {
				continue
			}
			// "func literal escapes to heap" is anchored on the literal,
			// but the closure is allocated by the ENCLOSING function
			// when it builds the value; the literal's own extent, which
			// starts on this very line, is not the allocator.
			if f.lit && el.line == f.start && strings.HasPrefix(el.msg, "func literal escapes") {
				continue
			}
			diags = append(diags, Diagnostic{
				Pos:  token.Position{Filename: el.file, Line: el.line, Column: 1},
				Rule: RuleEscapeAudit,
				Msg: fmt.Sprintf("compiler reports %q inside hot function %s (reachable from %s); keep the value on the stack, hoist the allocation to construction time, or annotate the statement //vichar:alloc <reason>",
					el.msg, f.name, f.root),
			})
			break
		}
	}
	return diags
}
