package network

import (
	"testing"

	"vichar/internal/config"
)

// TestStepAllocFree pins the hot-path purity contract (DESIGN.md §13)
// at runtime: after traffic has warmed every scratch buffer to its
// steady-state capacity and drained, Network.Step performs zero heap
// allocations. The static side of the same contract is vichar-lint's
// hot-path-alloc pass; this test catches whatever the AST
// approximation misses (e.g. an allocation behind a waiver that was
// wrongly justified as one-time). The Workers=2 subtests hold the lane
// executor to the same contract: its phase barrier allocates nothing
// either. testing.AllocsPerRun pins GOMAXPROCS to 1, so what they drive
// is the barrier's hard case — helpers without a processor, which park
// and are woken through their channels every phase.
func TestStepAllocFree(t *testing.T) {
	for _, arch := range []config.BufferArch{config.Generic, config.ViChaR, config.DAMQ, config.FCCB} {
		t.Run(arch.String(), func(t *testing.T) { testStepAllocFree(t, arch, 1) })
		t.Run(arch.String()+"-workers2", func(t *testing.T) { testStepAllocFree(t, arch, 2) })
	}
}

func testStepAllocFree(t *testing.T, arch config.BufferArch, workers int) {
	cfg := smokeCfg(arch)
	cfg.InjectionRate = 0
	cfg.Workers = workers
	n := New(&cfg)
	defer n.Close()
	// Warm up: run real traffic corner-to-corner and crosswise so
	// links, VC scratch, ejection staging, and the stats scratch
	// all grow to their steady-state capacity, then drain.
	for round := 0; round < 2; round++ {
		n.InjectPacket(0, 15)
		n.InjectPacket(15, 0)
		n.InjectPacket(3, 12)
		if left := n.Drain(10_000); left != 0 {
			t.Fatalf("warm-up round %d: %d packets undelivered", round, left)
		}
		// Step across a sampling boundary so the stats path is warm too.
		for i := int64(0); i < cfg.SampleEvery+1; i++ {
			n.Step()
		}
	}
	allocs := testing.AllocsPerRun(100, func() { n.Step() })
	if allocs != 0 {
		t.Fatalf("%v: Network.Step allocates %.1f times per cycle at steady state, want 0", arch, allocs)
	}
}
