package network

import (
	"reflect"
	"testing"

	"vichar/internal/config"
	"vichar/internal/stats"
	"vichar/internal/topology"
)

// faultBase is the shared platform of the fault-model tests: a small
// mesh kept below saturation so every run drains.
func faultBase() config.Config {
	cfg := config.Default()
	cfg.Width, cfg.Height = 4, 4
	cfg.InjectionRate = 0.25
	cfg.WarmupPackets = 30
	cfg.MeasurePackets = 200
	cfg.Seed = 7
	cfg.Audit = true
	return cfg
}

// TestHardLinkFailureDeadlockFree is the resilience tentpole's
// acceptance test: with links scheduled to die mid-run, the adaptive
// router must route around them on the fault-aware escape tree,
// complete the full measurement protocol deadlock-free with the
// invariant auditor on, and stay bit-identical between the serial and
// the sharded kernel.
func TestHardLinkFailureDeadlockFree(t *testing.T) {
	run := func(workers int) (stats.Results, []int64) {
		cfg := faultBase()
		cfg.Routing = config.MinimalAdaptive
		cfg.Workers = workers
		cfg.Faults = config.FaultsConfig{
			Seed: 3,
			Events: []config.FaultEvent{
				{Cycle: 80, Kind: config.KillLink, Node: 5, Port: topology.East},
				{Cycle: 80, Kind: config.KillLink, Node: 6, Port: topology.West},
				{Cycle: 120, Kind: config.KillLink, Node: 10, Port: topology.North},
			},
		}
		n := New(&cfg)
		defer n.Close()
		res := n.Run()
		return res, n.Collector().Latencies()
	}
	r1, l1 := run(1)
	r4, l4 := run(4)
	if r1.Saturated {
		t.Fatal("hard-failure run hit its cycle cap: traffic did not route around the dead links")
	}
	if !reflect.DeepEqual(r1, r4) {
		t.Fatalf("Workers=1 vs Workers=4 diverged under hard link failures:\n%+v\n%+v", r1, r4)
	}
	if !reflect.DeepEqual(l1, l4) {
		t.Fatal("Workers=1 vs Workers=4 diverged in per-packet latencies under hard link failures")
	}
}

// TestTransientFaultAccounting drains a faulted workload to empty and
// checks the declared-fault ledger end to end: faults happened, every
// one of them was recovered by a retransmission (nothing is parked
// once the network is idle), and no packet was lost — all under the
// per-cycle auditor, which checks the same conservation each step.
func TestTransientFaultAccounting(t *testing.T) {
	cfg := faultBase()
	cfg.InjectionRate = 0
	cfg.Faults = config.FaultsConfig{
		Seed:        11,
		DropRate:    0.02,
		CorruptRate: 0.01,
	}
	n := New(&cfg)
	defer n.Close()
	for i := 0; i < 200; i++ {
		src := i % n.mesh.Nodes()
		n.InjectPacket(src, (src+7)%n.mesh.Nodes())
	}
	if left := n.Drain(200_000); left != 0 {
		t.Fatalf("%d packets still in flight after drain", left)
	}
	c := n.totalCounters()
	if c.FlitDrops == 0 || c.FlitCorrupts == 0 {
		t.Fatalf("fault rates produced no faults: %d drops, %d corrupts", c.FlitDrops, c.FlitCorrupts)
	}
	if c.Retransmits != c.FlitDrops+c.FlitCorrupts {
		t.Fatalf("declared-fault ledger imbalanced after drain: %d retransmits for %d drops + %d corrupts",
			c.Retransmits, c.FlitDrops, c.FlitCorrupts)
	}
}

// TestScheduledStallWindow checks the targeted fault events: a frozen
// input port accrues exactly its scheduled stall cycles (the window is
// latched whether or not traffic touches the port), and a scheduled
// one-shot drop retransmits exactly once.
func TestScheduledStallWindow(t *testing.T) {
	cfg := faultBase()
	cfg.InjectionRate = 0
	cfg.Faults = config.FaultsConfig{
		Events: []config.FaultEvent{
			{Cycle: 10, Kind: config.StallPort, Node: 3, Port: topology.West, Cycles: 5},
		},
	}
	n := New(&cfg)
	for i := 0; i < 30; i++ {
		n.Step()
	}
	if c := n.totalCounters(); c.StallCycles != 5 {
		t.Fatalf("scheduled 5-cycle stall accrued %d stall cycles", c.StallCycles)
	}

	cfg = faultBase()
	cfg.InjectionRate = 0
	cfg.Faults = config.FaultsConfig{
		Events: []config.FaultEvent{
			{Cycle: 1, Kind: config.DropFlit, Node: 0, Port: topology.East},
		},
	}
	n = New(&cfg)
	n.InjectPacket(0, 3)
	if left := n.Drain(10_000); left != 0 {
		t.Fatalf("%d packets in flight after scheduled drop", left)
	}
	c := n.totalCounters()
	if c.FlitDrops != 1 || c.Retransmits != 1 {
		t.Fatalf("scheduled one-shot drop tallied %d drops, %d retransmits; want 1, 1", c.FlitDrops, c.Retransmits)
	}
}

// TestFaultFreePathUntouched pins the zero-overhead contract: a
// configuration with a zero-value Faults block must build no fault
// plan at all, so the hot delivery path keeps its seed shape.
func TestFaultFreePathUntouched(t *testing.T) {
	cfg := faultBase()
	n := New(&cfg)
	if n.fplan != nil || len(n.faultLinks) != 0 {
		t.Fatal("fault plan built for a fault-free configuration")
	}
	for i := range n.flitSlab {
		if n.flitSlab[i].faults != nil {
			t.Fatal("fault state attached to a link in a fault-free configuration")
		}
	}
}
