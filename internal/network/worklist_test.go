package network

import (
	"testing"

	"vichar/internal/config"
	"vichar/internal/trace"
)

// The active-router worklist tests (DESIGN.md §10): a drained network
// must step in near-zero time touching no router, every event that
// can make a sleeping router relevant again — scheduled injection, a
// flit arriving, a compiled fault plan — must keep or put it back on
// the worklist, and nothing else may: credits and ejections land on
// sleeping routers without a compute entry. All run the serial kernel:
// worklist bookkeeping is identical at every worker count (the
// determinism wall pins that), and Workers=1 keeps alloc accounting
// exact.

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

// stepCheckingWakes steps n once and checks the compute worklist's
// wake rule exactly: the cycle's compute entries are the routers awake
// before it plus those a due flit wakes — a credit or an ejection wakes
// none. It returns how many nodes took only credits, or only an
// ejection, while asleep: the deliveries the rule lets land without a
// compute entry.
func stepCheckingWakes(t *testing.T, n *Network) (creditOnly, ejectOnly int) {
	t.Helper()
	due := n.now + 1
	dueOn := func(q *ring[timedFlit]) bool { return q.len() > 0 && q.at(0).at <= due }
	want := uint64(0)
	for id := range n.routers {
		flit, credit := false, false
		for i := n.flitOff[id]; i < n.flitOff[id+1]; i++ {
			if l := &n.flitSlab[i]; l != n.ejectLink(id) && dueOn(&l.q) {
				flit = true
			}
		}
		for i := n.creditOff[id]; i < n.creditOff[id+1]; i++ {
			if q := &n.creditSlab[i].q; q.len() > 0 && q.at(0).at <= due {
				credit = true
			}
		}
		switch {
		case n.computeActive[id] || flit:
			want++
		case credit:
			creditOnly++
		case dueOn(&n.ejectLink(id).q):
			ejectOnly++
		}
	}
	before := n.WorklistStats().ComputeTicked
	n.Step()
	if got := n.WorklistStats().ComputeTicked - before; got != want {
		t.Fatalf("cycle %d ran %d compute entries, want %d: the awake routers plus those a flit wakes", n.now, got, want)
	}
	return creditOnly, ejectOnly
}

// TestWorklistCreditReturnWithoutWake: a multi-flit packet's tail
// credits reach upstream routers after the payload has moved on and
// the routers have gone quiescent. The credits land — the per-cycle
// audit checks every link's conservation and the readiness overlay
// masks — without putting those routers back on the compute worklist:
// a quiescent router's tick is the identity whatever its credit views
// hold.
func TestWorklistCreditReturnWithoutWake(t *testing.T) {
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
	landed := 0
	for i := 0; n.collector.Ejected() < n.created; i++ {
		if i == 10_000 {
			t.Fatal("packets undelivered after 10000 cycles")
		}
		c, _ := stepCheckingWakes(t, n)
		landed += c
	}
	if landed == 0 {
		t.Fatal("no credit reached a sleeping router: the test lost its teeth")
	}
	settled := n.WorklistStats()
	for i := 0; i < 100; i++ {
		n.Step()
	}
	if d := n.WorklistStats().ComputeTicked - settled.ComputeTicked; d != 0 {
		t.Fatalf("network still running %d compute entries after credits drained, want 0", d)
	}
}

// TestWorklistCreditOrEjectionAddsNoCompute: under load on every
// buffer organization, each cycle's compute entries are exactly the
// awake routers plus the flit-woken ones, and nodes whose only
// delivery in a cycle is a credit or an ejection add nothing. Packets
// are injected between Steps, so their sources are awake before the
// cycle that checks them.
func TestWorklistCreditOrEjectionAddsNoCompute(t *testing.T) {
	for _, arch := range allArchs {
		t.Run(arch.String(), func(t *testing.T) {
			cfg := smokeCfg(arch)
			cfg.InjectionRate = 0
			cfg.Workers = 1
			n := New(&cfg)
			credits, ejects := 0, 0
			for i := 0; i < 600; i++ {
				if i%4 == 0 && i < 400 {
					src := i * 7 % 16
					n.InjectPacket(src, (src+5+i/16)%16)
				}
				c, e := stepCheckingWakes(t, n)
				credits += c
				ejects += e
			}
			if credits == 0 || ejects == 0 {
				t.Fatalf("%d credit-only and %d ejection-only deliveries to sleeping nodes, want some of each", credits, ejects)
			}
		})
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
