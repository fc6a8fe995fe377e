// Package lint is the vichar-lint static-analysis engine: a
// stdlib-only (go/parser + go/ast + go/types) checker enforcing the
// simulator's determinism and invariant contract (see DESIGN.md,
// "Determinism & invariants"):
//
//   - map-range: no iteration over Go maps in the deterministic
//     simulator-core packages (map iteration order is randomized and
//     would make cycle-accurate runs seed-irreproducible); opt out
//     with `//vichar:ordered <reason>` at sites proven
//     order-insensitive.
//   - ambient-entropy: no global math/rand functions and no
//     time.Now/Since/Until anywhere in the simulator — all randomness
//     must flow through a seeded *rand.Rand derived from Config.Seed.
//   - checked-errors: error returns from simulator-internal calls
//     (buffers.Buffer, router pipeline methods, ...) must not be
//     silently dropped in the deterministic packages.
//   - panic-discipline: panics only in constructors or at annotated
//     invariant-violation sites (`//vichar:invariant <reason>`).
//   - concurrency-ownership: no `go` statement in internal packages
//     outside the cycle kernel's shard executor.
//   - escape-audit and hot-path-alloc: no allocation in a function
//     reachable from the tick roots (hotpath.go; DESIGN.md §13)
//     without `//vichar:alloc <reason>` on the statement.
//
// The go tool is the loader: one `go list -e -deps -test -export`
// resolves the patterns, orders packages dependencies first and
// compiles export data. The engine parses and type-checks only the
// main module's packages, in that order and test variants included,
// so _test.go files are typed like any other; everything else (the
// standard library) is imported from the compiler's export data.
package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one parsed, type-checked package of the main module.
type Package struct {
	// Dir is the absolute directory of the package sources.
	Dir string
	// ImportPath is the module-qualified import path; a test variant's
	// carries the go tool's " [p.test]" suffix.
	ImportPath string
	// Name is the package name (clause name, not path base).
	Name string
	// ForTest is the package under test when this is a test variant
	// (`p [p.test]` or `p_test [p.test]`), "" otherwise.
	ForTest string
	// Files are the parsed sources in go list order; a test variant's
	// include its _test.go files.
	Files []*ast.File
	// Types and Info carry the type-checker output for Files.
	Types *types.Package
	Info  *types.Info
}

// listed is the part of a `go list -json` record the loader reads.
type listed struct {
	ImportPath, Name, Dir, ForTest, Export string
	DepOnly                                bool
	GoFiles, Match                         []string
	ImportMap                              map[string]string
	Module                                 *struct {
		Path, Dir string
		Main      bool
	}
	Error *struct{ Err string }
}

// loader is the outcome of one load.
type loader struct {
	fset                   *token.FileSet
	moduleRoot, modulePath string
	pkgs                   []*Package // every main-module package, dependencies first
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// load lists the patterns from cwd and type-checks the main module's
// packages. It returns the packages the patterns name, with their test
// variants; a pattern that names nothing, a package the go tool cannot
// build and a type error are all errors.
func load(cwd string, patterns []string) (*loader, []*Package, error) {
	cmd := exec.Command("go", append([]string{"list", "-e", "-deps", "-test", "-export",
		"-json=ImportPath,Name,Dir,ForTest,Export,DepOnly,GoFiles,Match,ImportMap,Module,Error"}, patterns...)...)
	cmd.Dir = cwd
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("lint: go list: %v\n%s", err, stderr.Bytes())
	}
	l := &loader{fset: token.NewFileSet()}
	export := map[string]string{}
	gc := importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(export[path]) })
	checked := map[string]*types.Package{}
	parsed := map[string]*ast.File{}
	matched := map[string]bool{}
	var named []*Package
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var lp listed
		if err := dec.Decode(&lp); err != nil {
			return nil, nil, fmt.Errorf("lint: go list: %w", err)
		}
		if lp.Error != nil {
			return nil, nil, fmt.Errorf("lint: %s: %s", lp.ImportPath, strings.TrimSpace(lp.Error.Err))
		}
		for _, m := range lp.Match {
			matched[m] = true
		}
		if lp.Module == nil || !lp.Module.Main || strings.HasSuffix(lp.ImportPath, ".test") {
			export[lp.ImportPath] = lp.Export // not ours, or a generated test main
			continue
		}
		l.moduleRoot, l.modulePath = lp.Module.Dir, lp.Module.Path
		p := &Package{Dir: lp.Dir, ImportPath: lp.ImportPath, Name: lp.Name, ForTest: lp.ForTest}
		for _, name := range lp.GoFiles {
			file := filepath.Join(lp.Dir, name)
			if parsed[file] == nil {
				f, err := parser.ParseFile(l.fset, file, nil, parser.ParseComments|parser.SkipObjectResolution)
				if err != nil {
					return nil, nil, err
				}
				parsed[file] = f
			}
			p.Files = append(p.Files, parsed[file])
		}
		p.Info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Uses:       map[*ast.Ident]types.Object{},
			Defs:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
			if mapped, ok := lp.ImportMap[path]; ok {
				path = mapped
			}
			if t := checked[path]; t != nil {
				return t, nil
			}
			return gc.Import(path)
		})}
		path, _, _ := strings.Cut(lp.ImportPath, " ")
		if p.Types, err = conf.Check(path, l.fset, p.Files, p.Info); err != nil {
			return nil, nil, fmt.Errorf("lint: type-checking %s: %w", lp.ImportPath, err)
		}
		checked[lp.ImportPath] = p.Types
		l.pkgs = append(l.pkgs, p)
		if !lp.DepOnly {
			named = append(named, p)
		}
	}
	for _, pat := range patterns {
		if !matched[pat] {
			return nil, nil, fmt.Errorf("lint: pattern %s matched no packages", pat)
		}
	}
	return l, named, nil
}
