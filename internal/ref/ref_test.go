package ref

import (
	"errors"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"vichar/internal/config"
)

// The reference model is independent of the kernel it checks: its
// non-test files import from this module only the inputs both sides
// must share (configuration, topology, the traffic draws, the flit
// types) and the collector that turns ejections into Results.
func TestImportsAllowList(t *testing.T) {
	allowed := map[string]bool{}
	for _, p := range []string{"config", "topology", "traffic", "stats", "flit"} {
		allowed["vichar/internal/"+p] = true
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if strings.HasPrefix(path, "vichar") {
				seen++
				if !allowed[path] {
					t.Errorf("%s imports %s, which is not on the allow-list", file, path)
				}
			}
		}
	}
	if seen == 0 {
		t.Error("found no vichar imports: the scan is broken")
	}
}

// New refuses what the model does not cover, so a lockstep cannot
// compare the kernel against a model of some other network, and
// accepts what it does: either routing function on a mesh or torus,
// with escape VCs, here under GEN and ViChaR.
func TestNewRefusesOutOfScope(t *testing.T) {
	for name, edit := range map[string]func(*config.Config){
		"txn":    func(c *config.Config) { c.Txn.Enabled, c.Txn.Rate = true, 0.05 },
		"faults": func(c *config.Config) { c.Faults.DropRate = 0.01 },
	} {
		cfg := config.Default()
		edit(&cfg)
		if _, err := New(&cfg); !errors.Is(err, ErrScope) {
			t.Errorf("%s: New returned %v, want ErrScope", name, err)
		}
	}
	for _, arch := range []config.BufferArch{config.Generic, config.ViChaR} {
		for name, edit := range map[string]func(*config.Config){
			"default":        func(*config.Config) {},
			"adaptive":       func(c *config.Config) { c.Routing = config.MinimalAdaptive },
			"torus":          func(c *config.Config) { c.Torus = true },
			"adaptive torus": func(c *config.Config) { c.Routing, c.Torus = config.MinimalAdaptive, true },
		} {
			cfg := config.Default()
			cfg.Arch = arch
			edit(&cfg)
			if _, err := New(&cfg); err != nil {
				t.Errorf("%v %s: %v", arch, name, err)
			}
		}
	}
}
