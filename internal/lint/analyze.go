// Analyze is the full lint pipeline: per-package determinism rules
// and the cross-package hot-path purity passes over the call graph.
// A finding is accepted only by a reasoned //vichar: waiver at its
// site. Run (rules.go) is the thin wrapper the tests and simple
// callers use.
package lint

import (
	"fmt"
	"sort"
)

// Options configures an Analyze run.
type Options struct {
	// Patterns are the package patterns to lint; empty means "./...".
	Patterns []string
}

// Result is the outcome of one Analyze run.
type Result struct {
	// Diags are the findings no waiver covers, sorted by position.
	// Non-empty means the lint fails.
	Diags []Diagnostic
	// Hot is the AST pass's hot-set view, for EscapeAudit.
	Hot *HotReport
	// ModuleRoot is the enclosing module directory.
	ModuleRoot string
}

// Analyze loads the packages matched by the patterns and runs every
// pass.
func Analyze(cwd string, opts Options) (*Result, error) {
	patterns := opts.Patterns
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
	h := newHotChecker(l, graph, linted, &diags)
	h.run()
	attributeFuncs(graph, diags)
	sortDiags(diags)

	return &Result{
		Diags:      diags,
		Hot:        hotReport(graph, h, linted),
		ModuleRoot: l.moduleRoot,
	}, nil
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

// hotReport assembles the escape-audit view: the extents of every
// hot function in the linted deterministic packages, plus the lines
// the AST pass explained.
func hotReport(g *callGraph, h *hotChecker, linted map[string]bool) *HotReport {
	rep := &HotReport{Explained: h.explained}
	for _, n := range g.hotNodes(func(p *Package) bool {
		return deterministicPkgs[p.Name] && linted[p.ImportPath]
	}) {
		start := g.fset.Position(n.body().Pos())
		end := g.fset.Position(n.body().End())
		rep.Funcs = append(rep.Funcs, HotFunc{
			File:      start.Filename,
			Name:      n.name,
			Root:      n.root,
			StartLine: start.Line,
			EndLine:   end.Line,
		})
	}
	return rep
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
