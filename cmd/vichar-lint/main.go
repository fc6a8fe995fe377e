// Command vichar-lint enforces the simulator's determinism, invariant
// and hot-path allocation contracts (DESIGN.md §9 "Determinism &
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
// internal/network/shards.go), and the allocation contract over every
// function reachable from the tick roots Network.Step and
// Router.Tick: escape-audit (no heap decision in the compiler's
// `go build -gcflags='-m -m'` report) and hot-path-alloc (none of the
// five constructs that report cannot see: append, string
// concatenation, string↔byte-slice conversion, map literal,
// make(chan)). Sites proven safe are annotated in source:
//
//	//vichar:ordered <reason>       waives map-range
//	//vichar:invariant <reason>     waives panic-discipline
//	//vichar:alloc <reason>         waives escape-audit and hot-path-alloc
//	//vichar:nolint <rule> <reason> waives any other rule
//
// A bare marker with no reason never suppresses anything, and a
// waiver is the only way a finding is accepted.
//
// Flags:
//
//	-json  emit findings as a JSON array instead of text
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
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
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
	diags, err := lint.Run(cwd, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "vichar-lint:", err)
		os.Exit(2)
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
