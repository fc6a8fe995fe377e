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
// Arguments are package patterns as the go tool reads them, resolved
// by `go list` from the current directory (default ./...); findings
// print one per line as file:line:col: [rule] message.
//
// Exit status: 0 clean, 1 diagnostics found, 2 load/usage error.
package main

import (
	"flag"
	"fmt"
	"os"

	"vichar/internal/lint"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: vichar-lint [packages]\n\n"+
			"Package patterns are resolved by go list from the current\n"+
			"directory (default ./...).\n")
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
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "vichar-lint: %d issue(s)\n", len(diags))
		os.Exit(1)
	}
}
