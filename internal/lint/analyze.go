package lint

import (
	"fmt"
	"sort"
)

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
	l, err := newLoader(cwd)
	if err != nil {
		return nil, err
	}
	pkgs, err := l.load(cwd, patterns)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	linted := map[string]bool{}
	for _, p := range pkgs {
		if p.Types == nil && len(p.Files) > 0 {
			return nil, fmt.Errorf("lint: %s not type-checked", p.ImportPath)
		}
		linted[p.ImportPath] = true
		c := &checker{fset: l.fset, modulePath: l.modulePath, pkg: p, diags: &diags}
		c.run()
	}
	graph := buildCallGraph(l)
	if err := checkHotPaths(l, graph, linted, &diags); err != nil {
		return nil, err
	}
	attributeFuncs(graph, diags)
	sortDiags(diags)
	return diags, nil
}

// attributeFuncs fills each diagnostic's Func field from the call
// graph's declaration extents, so -json consumers see the enclosing
// function of every finding.
func attributeFuncs(g *callGraph, diags []Diagnostic) {
	type extent struct {
		start, end int
		name       string
	}
	byFile := map[string][]extent{}
	for _, n := range g.nodes {
		if n.decl == nil {
			continue
		}
		p := g.fset.Position(n.decl.Pos())
		end := g.fset.Position(n.decl.End())
		byFile[p.Filename] = append(byFile[p.Filename], extent{start: p.Line, end: end.Line, name: n.name})
	}
	for i := range diags {
		if diags[i].Func != "" {
			continue
		}
		for _, e := range byFile[diags[i].Pos.Filename] {
			if diags[i].Pos.Line >= e.start && diags[i].Pos.Line <= e.end {
				diags[i].Func = e.name
				break
			}
		}
	}
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
