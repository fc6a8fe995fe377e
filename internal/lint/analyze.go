package lint

import "sort"

// Run is the lint pipeline: it loads the packages matched by the
// patterns (resolved relative to cwd within the enclosing module; an
// empty list means "./..."), applies the per-package determinism
// rules, then checks the hot-path allocation contract over the call
// graph with the compiler's escape report (hotpath.go). It returns
// the findings no reasoned //vichar: waiver covers, sorted by
// position; non-empty means the lint fails.
func Run(cwd string, patterns []string) ([]Diagnostic, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	l, pkgs, err := load(cwd, patterns)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	linted := map[string]bool{}
	for _, p := range pkgs {
		linted[p.ImportPath] = true
		c := &checker{fset: l.fset, modulePath: l.modulePath, pkg: p, diags: &diags}
		c.run()
	}
	graph := buildCallGraph(l)
	if err := checkHotPaths(l, graph, linted, &diags); err != nil {
		return nil, err
	}
	sortDiags(diags)
	return diags, nil
}

// sortDiags orders diagnostics by position, then rule.
func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
}
