package network

import (
	"testing"

	"vichar/internal/config"
	"vichar/internal/trace"
)

// The active-router worklist tests (DESIGN.md §10): a drained network
// must step in near-zero time touching no router, and every event
// that can make a sleeping router relevant again — scheduled
// injection, credit return, a compiled fault plan — must keep or put
// it back on the worklist. All run the serial kernel: worklist
// bookkeeping is identical at every worker count (the determinism
// wall pins that), and Workers=1 keeps alloc accounting exact.

// drain steps until the network is empty and asserts nothing was left
// behind.
func drainOrFatal(t *testing.T, n *Network, budget int64) {
	t.Helper()
	if left := n.Drain(budget); left != 0 {
		t.Fatalf("%d packets undelivered after %d cycles", left, budget)
	}
}

// TestWorklistDrainedQuiescent pins the tentpole claim: once traffic
// has drained, Step touches no router at all — every compute and
// deliver entry is skipped — and allocates nothing.
func TestWorklistDrainedQuiescent(t *testing.T) {
	for _, arch := range []config.BufferArch{config.Generic, config.ViChaR, config.DAMQ, config.FCCB} {
		arch := arch
		t.Run(arch.String(), func(t *testing.T) {
			cfg := smokeCfg(arch)
			cfg.InjectionRate = 0
			cfg.Workers = 1
			n := New(&cfg)
			n.InjectPacket(0, 15)
			n.InjectPacket(15, 0)
			drainOrFatal(t, n, 10_000)

			before := n.WorklistStats()
			const window = 200
			for i := 0; i < window; i++ {
				n.Step()
			}
			after := n.WorklistStats()
			if d := after.ComputeTicked - before.ComputeTicked; d != 0 {
				t.Errorf("drained network ran %d compute entries over %d cycles, want 0", d, window)
			}
			if d := after.DeliverTicked - before.DeliverTicked; d != 0 {
				t.Errorf("drained network ran %d deliver entries over %d cycles, want 0", d, window)
			}
			if allocs := testing.AllocsPerRun(100, func() { n.Step() }); allocs != 0 {
				t.Errorf("drained Step allocates %.1f times per cycle, want 0", allocs)
			}
		})
	}
}

// TestWorklistWakeOnScheduledInjection puts the whole network to
// sleep, schedules a packet for a future cycle, and checks the source
// wakes exactly then, the packet delivers, and everything re-sleeps.
func TestWorklistWakeOnScheduledInjection(t *testing.T) {
	cfg := smokeCfg(config.ViChaR)
	cfg.InjectionRate = 0
	cfg.Workers = 1
	n := New(&cfg)
	n.InjectPacket(0, 5)
	drainOrFatal(t, n, 10_000)

	const wakeAt = 120
	start := n.Now()
	if err := n.ScheduleTrace([]trace.Entry{{Cycle: start + wakeAt, Src: 2, Dst: 13, Size: cfg.PacketSize}}); err != nil {
		t.Fatal(err)
	}
	asleep := n.WorklistStats()
	for n.Now() < start+wakeAt-1 {
		n.Step()
	}
	if d := n.WorklistStats().ComputeTicked - asleep.ComputeTicked; d != 0 {
		t.Fatalf("network ran %d compute entries while waiting on a scheduled injection, want 0", d)
	}
	created := n.CreatedPackets()
	drainOrFatal(t, n, 10_000)
	if n.CreatedPackets() != created+1 {
		t.Fatalf("scheduled packet not created: %d -> %d", created, n.CreatedPackets())
	}
	if d := n.WorklistStats().ComputeTicked - asleep.ComputeTicked; d == 0 {
		t.Fatal("scheduled injection woke no router")
	}
	// And back to sleep: the wake is edge-triggered, not sticky.
	settled := n.WorklistStats()
	for i := 0; i < 100; i++ {
		n.Step()
	}
	if d := n.WorklistStats().ComputeTicked - settled.ComputeTicked; d != 0 {
		t.Fatalf("network still running %d compute entries after re-draining, want 0", d)
	}
}

// TestWorklistWakeOnCreditReturn exercises the reverse-channel wake:
// a multi-flit packet's tail credit must reach the upstream router
// after the payload has moved on, and the worklist must wake the
// upstream router to process it — otherwise the run would either
// deadlock or leak credits, both of which the per-cycle audit
// catches. The audit also cross-checks the readiness overlay masks.
func TestWorklistWakeOnCreditReturn(t *testing.T) {
	cfg := smokeCfg(config.ViChaR)
	cfg.InjectionRate = 0
	cfg.Workers = 1
	cfg.Audit = true
	n := New(&cfg)
	// Corner-to-corner both ways: every hop's credit channel sees
	// traffic, and the final tail credits arrive at routers whose
	// forward path has already gone quiet.
	n.InjectPacket(0, 15)
	n.InjectPacket(15, 0)
	drainOrFatal(t, n, 10_000)
	settled := n.WorklistStats()
	for i := 0; i < 100; i++ {
		n.Step()
	}
	if d := n.WorklistStats().ComputeTicked - settled.ComputeTicked; d != 0 {
		t.Fatalf("network still running %d compute entries after credits drained, want 0", d)
	}
}

// TestWorklistFaultPlanNeverSleeps pins the conservative fault-model
// contract: fault schedules mutate per-cycle state regardless of
// traffic (stall windows expire, kill events arm), so a network with
// a compiled fault plan keeps every router on the worklist.
func TestWorklistFaultPlanNeverSleeps(t *testing.T) {
	cfg := smokeCfg(config.ViChaR)
	cfg.InjectionRate = 0
	cfg.Workers = 1
	cfg.Routing = config.MinimalAdaptive // kill-link faults need a way around the dead link
	cfg.Faults = config.FaultsConfig{Events: []config.FaultEvent{
		{Cycle: 40, Kind: config.StallPort, Node: 5, Port: 0, Cycles: 10},
		{Cycle: 60, Kind: config.KillLink, Node: 9, Port: 1},
	}}
	n := New(&cfg)
	n.InjectPacket(0, 15)
	drainOrFatal(t, n, 10_000)

	before := n.WorklistStats()
	const window = 100
	for i := 0; i < window; i++ {
		n.Step()
	}
	after := n.WorklistStats()
	if after.ComputeSkipped != before.ComputeSkipped {
		t.Fatalf("faulted network skipped %d compute entries, want 0: fault plans must keep routers awake",
			after.ComputeSkipped-before.ComputeSkipped)
	}
	if got, want := after.ComputeTicked-before.ComputeTicked, uint64(window*n.Mesh().Nodes()); got != want {
		t.Fatalf("faulted network ran %d compute entries over %d cycles, want %d", got, window, want)
	}
}

// TestWorklistTorusWraparound routes a packet across a wraparound
// link (0 -> 3 on a 4-wide ring takes the West wrap: distance 1
// against 3 through the row) and checks the border router on the far
// side wakes, delivers, and the network re-sleeps — wrap links carry
// the same worklist wiring as interior ones.
func TestWorklistTorusWraparound(t *testing.T) {
	cfg := smokeCfg(config.ViChaR)
	cfg.InjectionRate = 0
	cfg.Workers = 1
	cfg.Torus = true
	n := New(&cfg)
	n.InjectPacket(0, 15)
	drainOrFatal(t, n, 10_000)
	asleep := n.WorklistStats()

	n.InjectPacket(0, 3)
	drainOrFatal(t, n, 10_000)
	if d := n.WorklistStats().ComputeTicked - asleep.ComputeTicked; d == 0 {
		t.Fatal("wraparound delivery woke no router")
	}
	settled := n.WorklistStats()
	for i := 0; i < 100; i++ {
		n.Step()
	}
	if d := n.WorklistStats().ComputeTicked - settled.ComputeTicked; d != 0 {
		t.Fatalf("torus network still running %d compute entries after drain, want 0", d)
	}
}

// TestArenaSizingExact pins router.NewArena's closed-form capacity
// formula: every hot-state take across every architecture — torus
// wrap views and escape-VC dispenser bitmaps included — must land
// inside the arena's backing arrays, or construction-order locality
// silently degrades.
func TestArenaSizingExact(t *testing.T) {
	for _, arch := range []config.BufferArch{config.Generic, config.ViChaR, config.DAMQ, config.FCCB} {
		for _, torus := range []bool{false, true} {
			arch, torus := arch, torus
			name := arch.String()
			if torus {
				name += "/torus"
			}
			t.Run(name, func(t *testing.T) {
				cfg := smokeCfg(arch)
				cfg.Torus = torus
				cfg.Workers = 1
				cfg.InjectionRate = 0
				n := New(&cfg)
				n.InjectPacket(0, 15)
				drainOrFatal(t, n, 10_000)
				if ov := n.ArenaOverflow(); ov != 0 {
					t.Fatalf("%s: %d hot-state elements allocated outside the arena, want 0", name, ov)
				}
			})
		}
	}
}
