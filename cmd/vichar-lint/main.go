// Command vichar-lint enforces the simulator's determinism, invariant
// and hot-path purity contracts (DESIGN.md, "Determinism &
// invariants" and §13 "Hot-path purity contract") over the given
// package patterns:
//
//	go run ./cmd/vichar-lint ./...
//
// Rules: map-range (no map iteration in the deterministic
// simulator-core packages), ambient-entropy (no global math/rand, no
// time.Now — randomness flows from Config.Seed), checked-errors (no
// silently dropped error returns from simulator-internal calls),
// panic-discipline (panics only in constructors or annotated
// invariant violations), concurrency-ownership (no `go` statements
// in internal packages outside the cycle kernel's shard executor,
// internal/network/shards.go), hot-path-alloc (no allocation in
// functions reachable from the tick roots Network.Step and
// Router.Tick), probe-guard (metrics accesses in deterministic
// packages must be nil-guarded or nil-receiver-safe) and
// phase-ownership (shard functions passed to runSharded may only
// write through shard-derived indexes). Sites proven safe are
// annotated in source:
//
//	//vichar:ordered <reason>       waives map-range
//	//vichar:invariant <reason>     waives panic-discipline
//	//vichar:alloc <reason>         waives hot-path-alloc
//	//vichar:nolint <rule> <reason> waives any rule
//
// A bare marker with no reason never suppresses anything, and a
// waiver is the only way a finding is accepted.
//
// Flags:
//
//	-json          emit findings as a JSON array instead of text
//	-escape-audit  cross-check the AST pass against go build -gcflags=-m
//
// Exit status: 0 clean, 1 diagnostics found, 2 load/usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"vichar/internal/lint"
)

func main() {
	var (
		jsonOut     = flag.Bool("json", false, "emit findings as a JSON array")
		escapeAudit = flag.Bool("escape-audit", false, "cross-check the AST pass against go build -gcflags=-m -m")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: vichar-lint [flags] [packages]\n\n"+
			"Package patterns are directories relative to the current module,\n"+
			"optionally ending in /... (default ./...).\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vichar-lint:", err)
		os.Exit(2)
	}
	res, err := lint.Analyze(cwd, lint.Options{Patterns: flag.Args()})
	if err != nil {
		fmt.Fprintln(os.Stderr, "vichar-lint:", err)
		os.Exit(2)
	}

	diags := res.Diags
	if *escapeAudit {
		audit, err := lint.EscapeAudit(res.ModuleRoot, res.Hot)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vichar-lint:", err)
			os.Exit(2)
		}
		diags = append(diags, audit...)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, "vichar-lint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "vichar-lint: %d issue(s)\n", len(diags))
		}
		os.Exit(1)
	}
}
