package faults

import (
	"slices"
	"testing"

	"vichar/internal/config"
	"vichar/internal/flit"
	"vichar/internal/topology"
)

func planFor(t *testing.T, mutate func(*config.FaultsConfig)) *Plan {
	t.Helper()
	cfg := config.Default()
	cfg.Width, cfg.Height = 4, 4
	cfg.Routing = config.MinimalAdaptive
	mutate(&cfg.Faults)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return NewPlan(&cfg)
}

func TestNilPlanIsInert(t *testing.T) {
	cfg := config.Default()
	p := NewPlan(&cfg)
	if p != nil {
		t.Fatal("fault-free config compiled a plan")
	}
	if p.HasHardFaults() || p.LinkEverDead(0, topology.East) {
		t.Fatal("nil plan reports faults")
	}
	if p.Routers() != nil {
		t.Fatal("nil plan built state")
	}
	var s *LinkState
	if s.Held() != 0 {
		t.Fatal("nil link state holds a flit")
	}
}

func TestAttemptIsCounterDeterministic(t *testing.T) {
	mk := func() *LinkState {
		p := planFor(t, func(f *config.FaultsConfig) {
			f.Seed = 5
			f.DropRate = 0.2
			f.CorruptRate = 0.1
		})
		s := p.Link(3, topology.East)
		return &s
	}
	a, b := mk(), mk()
	for i := 0; i < 2000; i++ {
		if oa, ob := a.Attempt(int64(i)), b.Attempt(int64(i)); oa != ob {
			t.Fatalf("attempt %d diverged: %d vs %d", i, oa, ob)
		}
	}
	if a.Drops == 0 || a.Corrupts == 0 {
		t.Fatalf("rates 0.2/0.1 over 2000 attempts produced %d drops, %d corrupts", a.Drops, a.Corrupts)
	}
	if frac := float64(a.Drops) / 2000; frac < 0.1 || frac > 0.3 {
		t.Fatalf("drop fraction %.3f far from configured 0.2", frac)
	}
	// Distinct links draw from distinct streams.
	p := planFor(t, func(f *config.FaultsConfig) {
		f.Seed = 5
		f.DropRate = 0.2
		f.CorruptRate = 0.1
	})
	east, west := p.Link(3, topology.East), p.Link(3, topology.West)
	same := true
	for i := 0; i < 100; i++ {
		if east.Attempt(int64(i)) != west.Attempt(int64(i)) {
			same = false
		}
	}
	if same {
		t.Fatal("two different links produced identical fault streams")
	}
}

func TestHoldRearmReleaseLedger(t *testing.T) {
	p := planFor(t, func(f *config.FaultsConfig) {
		f.Seed = 1
		f.DropRate = 0.5
		f.RetransmitDelay = 3
	})
	s := p.Link(0, topology.East)
	f := &flit.Flit{}
	s.Drops++ // the attempt that faulted
	s.Hold(f, 10)
	if !s.Blocked() || s.Held() != 1 {
		t.Fatal("held flit not blocking the link")
	}
	if s.HeldDue(12) {
		t.Fatal("retransmission due before its delay elapsed")
	}
	if !s.HeldDue(13) {
		t.Fatal("retransmission not due after its delay")
	}
	s.Drops++
	s.Rearm(13) // failed retry: counts the attempt
	if s.HeldDue(15) {
		t.Fatal("rearm did not re-delay the held flit")
	}
	if got := s.Release(); got != f {
		t.Fatal("release returned the wrong flit")
	}
	if s.Blocked() || s.Held() != 0 {
		t.Fatal("link still blocked after release")
	}
	if s.Drops+s.Corrupts != s.Retransmits+uint64(s.Held()) {
		t.Fatalf("ledger imbalanced: %d+%d != %d+%d", s.Drops, s.Corrupts, s.Retransmits, s.Held())
	}
}

func TestHoldTwicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("double Hold did not panic")
		}
	}()
	p := planFor(t, func(f *config.FaultsConfig) {
		f.DropRate = 0.1
	})
	s := p.Link(0, topology.East)
	s.Hold(&flit.Flit{}, 1)
	s.Hold(&flit.Flit{}, 2)
}

func TestScheduledDropsConsumeInOrder(t *testing.T) {
	p := planFor(t, func(f *config.FaultsConfig) {
		f.Events = []config.FaultEvent{
			{Cycle: 20, Kind: config.DropFlit, Node: 1, Port: topology.South},
			{Cycle: 5, Kind: config.DropFlit, Node: 1, Port: topology.South},
		}
	})
	s := p.Link(1, topology.South)
	if out := s.Attempt(3); out != Deliver {
		t.Fatal("drop fired before its cycle")
	}
	if out := s.Attempt(6); out != Drop {
		t.Fatal("due scheduled drop did not fire")
	}
	if out := s.Attempt(7); out != Deliver {
		t.Fatal("one-shot drop fired twice")
	}
	if out := s.Attempt(25); out != Drop {
		t.Fatal("second scheduled drop did not fire")
	}
}

func TestStallWindowsAndKills(t *testing.T) {
	p := planFor(t, func(f *config.FaultsConfig) {
		f.Events = []config.FaultEvent{
			{Cycle: 10, Kind: config.StallPort, Node: 2, Port: 1, Cycles: 4},
			{Cycle: 30, Kind: config.KillLink, Node: 2, Port: topology.East},
		}
	})
	if !p.HasHardFaults() || !p.LinkEverDead(2, topology.East) {
		t.Fatal("kill schedule not compiled")
	}
	if p.LinkEverDead(2, topology.West) {
		t.Fatal("healthy link reported as dying")
	}
	r := &p.Routers()[2]
	stalled := 0
	for now := int64(1); now <= 40; now++ {
		r.BeginCycle(now)
		if r.Stalled(1) {
			stalled++
		}
		if dead := r.LinkDead(topology.East); dead != (now >= 30) {
			t.Fatalf("cycle %d: LinkDead=%v", now, dead)
		}
	}
	if stalled != 4 {
		t.Fatalf("4-cycle stall window froze the port for %d cycles", stalled)
	}
	if r.Stalled(0) || r.Stalled(topology.Local) {
		t.Fatal("stall leaked onto other ports")
	}
}

func TestRateStallsDeterministic(t *testing.T) {
	mk := func() *RouterState {
		p := planFor(t, func(f *config.FaultsConfig) {
			f.Seed = 9
			f.StallRate = 0.01
			f.StallCycles = 3
		})
		return &p.Routers()[5]
	}
	a, b := mk(), mk()
	stalls := 0
	for now := int64(1); now <= 500; now++ {
		a.BeginCycle(now)
		b.BeginCycle(now)
		for port := 0; port < topology.NumPorts; port++ {
			if a.Stalled(port) != b.Stalled(port) {
				t.Fatalf("cycle %d port %d: stall decision diverged", now, port)
			}
			if a.Stalled(port) {
				stalls++
			}
		}
	}
	if stalls == 0 {
		t.Fatal("stall rate 0.01 over 2500 port-cycles produced no stalls")
	}
}

// The schedule keeps every resource's events in one row of a shared
// array: events given in any order land in their own resource's row,
// sorted, and a row's neighbours see none of them.
func TestScheduleRowsPerResource(t *testing.T) {
	p := planFor(t, func(f *config.FaultsConfig) {
		f.Events = []config.FaultEvent{
			{Cycle: 9, Kind: config.StallPort, Node: 3, Port: 0, Cycles: 2},
			{Cycle: 20, Kind: config.DropFlit, Node: 1, Port: topology.South},
			{Cycle: 4, Kind: config.StallPort, Node: 2, Port: 1, Cycles: 3},
			{Cycle: 7, Kind: config.DropFlit, Node: 2, Port: topology.East},
			{Cycle: 5, Kind: config.DropFlit, Node: 1, Port: topology.South},
			{Cycle: 1, Kind: config.StallPort, Node: 3, Port: 0, Cycles: 1},
		}
	})
	drops := func(node, port int) []int64 {
		s := p.Link(node, port)
		var at []int64
		for now := int64(0); now < 30; now++ {
			if s.Attempt(now) == Drop {
				at = append(at, now)
			}
		}
		return at
	}
	for _, c := range []struct {
		node, port int
		want       []int64
	}{{1, topology.South, []int64{5, 20}}, {2, topology.East, []int64{7}}, {1, topology.East, nil}, {2, topology.South, nil}} {
		if got := drops(c.node, c.port); !slices.Equal(got, c.want) {
			t.Errorf("link %d.%d dropped at %v, want %v", c.node, c.port, got, c.want)
		}
	}
	rs := p.Routers()
	stalls := func(node, port int) []int64 {
		var at []int64
		for now := int64(1); now < 30; now++ {
			rs[node].BeginCycle(now)
			if rs[node].Stalled(port) {
				at = append(at, now)
			}
		}
		return at
	}
	for _, c := range []struct {
		node, port int
		want       []int64
	}{{3, 0, []int64{1, 9, 10}}, {2, 1, []int64{4, 5, 6}}, {2, 0, nil}, {3, 1, nil}} {
		if got := stalls(c.node, c.port); !slices.Equal(got, c.want) {
			t.Errorf("router %d port %d stalled at %v, want %v", c.node, c.port, got, c.want)
		}
	}
}
