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
// The engine loads packages itself (no go/packages dependency): it
// resolves `./...`-style patterns against the enclosing module,
// parses every package, topologically sorts the local import graph
// and type-checks with a chained importer — local packages from the
// in-process graph, everything else from source via go/importer.
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Dir is the absolute directory of the package sources.
	Dir string
	// ImportPath is the module-qualified import path.
	ImportPath string
	// Name is the package name (clause name, not path base).
	Name string
	// Files are the parsed non-test sources, ordered by file name.
	Files []*ast.File
	// TestFiles are the parsed _test.go sources (in-package and
	// external); they are scanned syntactically, not type-checked.
	TestFiles []*ast.File
	// Types and Info carry the type-checker output for Files.
	Types *types.Package
	Info  *types.Info
}

// loader resolves patterns, parses and type-checks packages.
type loader struct {
	fset       *token.FileSet
	moduleRoot string
	modulePath string

	pkgs   map[string]*Package       // by import path
	byPath map[string]*types.Package // type-checked, by import path
	src    types.Importer            // source importer for non-local deps
}

// findModule locates the enclosing module root and path starting at
// dir.
func findModule(dir string) (root, path string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, rerr := os.ReadFile(filepath.Join(dir, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// newLoader builds a loader rooted at the module enclosing cwd.
func newLoader(cwd string) (*loader, error) {
	root, path, err := findModule(cwd)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &loader{
		fset:       fset,
		moduleRoot: root,
		modulePath: path,
		pkgs:       map[string]*Package{},
		byPath:     map[string]*types.Package{},
		src:        importer.ForCompiler(fset, "source", nil),
	}, nil
}

// expand resolves the patterns (directories, optionally ending in
// "/...") into a sorted list of package directories containing Go
// files. Directories named testdata (and hidden/underscore ones) are
// skipped during recursive expansion unless the pattern root itself
// lies inside one — that is how the linter's own fixture suite loads
// its test packages.
func (l *loader) expand(cwd string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive, pat = true, rest
		} else if pat == "..." {
			recursive, pat = true, "."
		}
		root := pat
		if !filepath.IsAbs(root) {
			root = filepath.Join(cwd, root)
		}
		root = filepath.Clean(root)
		if !recursive {
			if ok, err := hasGoFiles(root); err != nil {
				return nil, err
			} else if !ok {
				return nil, fmt.Errorf("lint: no Go files in %s", root)
			}
			add(root)
			continue
		}
		inTestdata := strings.Contains(root+string(filepath.Separator), string(filepath.Separator)+"testdata"+string(filepath.Separator))
		err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || (name == "testdata" && !inTestdata)) {
				return filepath.SkipDir
			}
			if ok, err := hasGoFiles(p); err != nil {
				return err
			} else if ok {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// hasGoFiles reports whether dir directly contains at least one .go
// file.
func hasGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true, nil
		}
	}
	return false, nil
}

// importPathFor maps a package directory to its module-qualified
// import path.
func (l *loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.moduleRoot, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, l.moduleRoot)
	}
	if rel == "." {
		return l.modulePath, nil
	}
	return l.modulePath + "/" + filepath.ToSlash(rel), nil
}

// parse reads the directory into a Package (unchecked).
func (l *loader) parse(dir string) (*Package, error) {
	ip, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	p := &Package{Dir: dir, ImportPath: ip}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	for _, name := range names {
		file, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if strings.HasSuffix(name, "_test.go") {
			p.TestFiles = append(p.TestFiles, file)
			continue
		}
		if p.Name == "" {
			p.Name = file.Name.Name
		} else if p.Name != file.Name.Name {
			return nil, fmt.Errorf("lint: %s: packages %s and %s in one directory", dir, p.Name, file.Name.Name)
		}
		p.Files = append(p.Files, file)
	}
	if p.Name == "" && len(p.TestFiles) > 0 {
		p.Name = p.TestFiles[0].Name.Name
	}
	return p, nil
}

// localImports returns the package's imports within the module,
// sorted.
func (l *loader) localImports(p *Package) []string {
	seen := map[string]bool{}
	var out []string
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if (path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/")) && !seen[path] {
				seen[path] = true
				out = append(out, path)
			}
		}
	}
	sort.Strings(out)
	return out
}

// chainImporter resolves local packages from the loaded graph and
// everything else (the standard library) from source.
type chainImporter struct{ l *loader }

func (c chainImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := c.l.byPath[path]; ok {
		return p, nil
	}
	if p, ok := c.l.pkgs[path]; ok {
		if err := c.l.check(p); err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	if path == c.l.modulePath || strings.HasPrefix(path, c.l.modulePath+"/") {
		// A module package imported by a linted one but not matched by
		// the patterns: load it on demand (type-checked, not linted).
		dir := filepath.Join(c.l.moduleRoot, filepath.FromSlash(strings.TrimPrefix(path, c.l.modulePath)))
		p, err := c.l.parse(dir)
		if err != nil {
			return nil, err
		}
		c.l.pkgs[path] = p
		if err := c.l.check(p); err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return c.l.src.Import(path)
}

// check type-checks the package (and, via the importer, its local
// dependencies first).
func (l *loader) check(p *Package) error {
	if p.Types != nil {
		return nil
	}
	if len(p.Files) == 0 {
		return nil // test-only directory; scanned syntactically
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: chainImporter{l}}
	tpkg, err := conf.Check(p.ImportPath, l.fset, p.Files, info)
	if err != nil {
		return fmt.Errorf("lint: type-checking %s: %w", p.ImportPath, err)
	}
	p.Types, p.Info = tpkg, info
	l.byPath[p.ImportPath] = tpkg
	return nil
}

// load resolves, parses and type-checks every package matched by the
// patterns, returned sorted by import path.
func (l *loader) load(cwd string, patterns []string) ([]*Package, error) {
	dirs, err := l.expand(cwd, patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		p, err := l.parse(dir)
		if err != nil {
			return nil, err
		}
		if p.Name == "" {
			continue
		}
		l.pkgs[p.ImportPath] = p
		pkgs = append(pkgs, p)
	}
	// Type-check in deterministic order; the chained importer pulls
	// local dependencies in first, and detects cycles as ordinary
	// import cycles through the type checker.
	for _, p := range pkgs {
		if err := l.check(p); err != nil {
			return nil, err
		}
	}
	return pkgs, nil
}
