package ref

import (
	"errors"
	"go/parser"
	"go/token"
	"path/filepath"
	"runtime"
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
// with escape VCs, and fault plans, link kills under adaptive routing
// included, here under GEN and ViChaR.
func TestNewRefusesOutOfScope(t *testing.T) {
	for name, edit := range map[string]func(*config.Config){
		"txn": func(c *config.Config) { c.Txn.Enabled, c.Txn.Rate = true, 0.05 },
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
			"faults":         func(c *config.Config) { c.Faults.DropRate = 0.01 },
			"kill under adaptive": func(c *config.Config) {
				c.Routing = config.MinimalAdaptive
				c.Faults.Events = []config.FaultEvent{{Cycle: 50, Kind: config.KillLink, Node: 27, Port: 1}}
			},
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

// Once warm, a loaded network allocates per step only what a packet
// is made of: its record when the generator creates it, and its flit
// slice and flits when the network interface injects it. The queues
// keep their capacity and RC, VA and SA allocate nothing, so the
// model's cost is its visits, not garbage.
func TestStepAllocatesOnlyPackets(t *testing.T) {
	cfg := config.Default()
	cfg.Arch = config.ViChaR
	cfg.InjectionRate = 0.30
	n, err := New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		n.Step()
	}
	created := n.nextID
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 1000; i++ {
		n.Step()
	}
	runtime.ReadMemStats(&after)
	created = n.nextID - created
	allocs := after.Mallocs - before.Mallocs
	// A packet is 2 + size objects; the slack covers a backlog change at
	// the interfaces and the collector's sample series growing.
	budget := created*uint64(2+cfg.PacketSize) + 16
	t.Logf("%d packets created, %d allocations (budget %d)", created, allocs, budget)
	if created == 0 || allocs > budget {
		t.Errorf("%d allocations over 1000 loaded steps that created %d packets; budget %d", allocs, created, budget)
	}
}
