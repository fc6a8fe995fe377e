package network

import (
	"testing"

	"vichar/internal/config"
	"vichar/internal/topology"
	"vichar/internal/trace"
)

// Replaying a recorded workload must reproduce the original run
// exactly (same architecture) — the record/replay fidelity check.
func TestTraceReplayFidelity(t *testing.T) {
	cfg := config.Default()
	cfg.Width, cfg.Height = 4, 4
	cfg.InjectionRate = 0.25
	cfg.WarmupPackets = 300
	cfg.MeasurePackets = 1200
	cfg.Seed = 31

	orig := New(&cfg)
	orig.RecordTrace()
	origRes := orig.Run()
	rec := orig.RecordedTrace()
	if len(rec) == 0 {
		t.Fatal("nothing recorded")
	}

	replayCfg := cfg
	replayCfg.InjectionRate = 0
	rep := New(&replayCfg)
	if err := rep.ScheduleTrace(rec); err != nil {
		t.Fatal(err)
	}
	repRes := rep.Run()

	if repRes.AvgLatency != origRes.AvgLatency {
		t.Fatalf("replay latency %.4f != original %.4f", repRes.AvgLatency, origRes.AvgLatency)
	}
	if repRes.Throughput != origRes.Throughput {
		t.Fatalf("replay throughput diverged")
	}
	if repRes.TotalCycles != origRes.TotalCycles {
		t.Fatalf("replay cycles %d != %d", repRes.TotalCycles, origRes.TotalCycles)
	}
}

// A trace can be replayed against a different architecture.
func TestTraceReplayCrossArchitecture(t *testing.T) {
	cfg := config.Default()
	cfg.Width, cfg.Height = 4, 4
	cfg.InjectionRate = 0.30
	cfg.WarmupPackets = 200
	cfg.MeasurePackets = 800
	cfg.Seed = 33

	orig := New(&cfg)
	orig.RecordTrace()
	orig.Run()
	rec := orig.RecordedTrace()

	vic := cfg
	vic.Arch = config.ViChaR
	vic.InjectionRate = 0
	rep := New(&vic)
	if err := rep.ScheduleTrace(rec); err != nil {
		t.Fatal(err)
	}
	res := rep.Run()
	if res.MeasuredPackets != 800 {
		t.Fatalf("cross-arch replay measured %d packets", res.MeasuredPackets)
	}
}

func TestScheduleTraceValidation(t *testing.T) {
	cfg := config.Default()
	cfg.Width, cfg.Height = 4, 4
	n := New(&cfg)
	if err := n.ScheduleTrace([]trace.Entry{{Cycle: 0, Src: 0, Dst: 99, Size: 4}}); err == nil {
		t.Fatal("out-of-range destination accepted")
	}
	// A 2^31-flit record would be materialized at injection.
	if err := n.ScheduleTrace([]trace.Entry{{Cycle: 0, Src: 0, Dst: 1, Size: 1<<31 - 1}}); err == nil {
		t.Fatal("packet size past config.MaxPacketSize accepted")
	}
	if err := n.ScheduleTrace([]trace.Entry{
		{Cycle: 5, Src: 0, Dst: 1, Size: 4},
		{Cycle: 2, Src: 0, Dst: 1, Size: 4},
	}); err == nil {
		t.Fatal("out-of-order trace accepted")
	}
	if err := n.ScheduleTrace([]trace.Entry{{Cycle: 1, Src: 0, Dst: 1, Size: 4}}); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	if n.TracePending() != 1 {
		t.Fatal("pending count wrong")
	}
}

// Variable packet sizes: all sizes deliver, across architectures.
func TestVariablePacketSizes(t *testing.T) {
	for _, arch := range allArchs {
		arch := arch
		t.Run(arch.String(), func(t *testing.T) {
			cfg := config.Default()
			cfg.Width, cfg.Height = 4, 4
			cfg.Arch = arch
			cfg.PacketSize = 1
			cfg.PacketSizeMax = 8
			cfg.InjectionRate = 0.2
			cfg.WarmupPackets = 200
			cfg.MeasurePackets = 800
			cfg.Seed = 41
			n := New(&cfg)
			res := n.Run()
			if res.Saturated || res.MeasuredPackets != 800 {
				t.Fatalf("variable-size run failed: %+v", res)
			}
		})
	}
}

func TestSingleFlitPackets(t *testing.T) {
	cfg := config.Default()
	cfg.Width, cfg.Height = 4, 4
	cfg.Arch = config.ViChaR
	cfg.PacketSize = 1
	cfg.InjectionRate = 0
	cfg.WarmupPackets = 0
	cfg.MeasurePackets = 1
	n := New(&cfg)
	p := n.InjectPacketSized(0, 15, 1)
	if left := n.Drain(5_000); left != 0 {
		t.Fatal("single-flit packet undelivered")
	}
	if p.EjectedAt == 0 {
		t.Fatal("not stamped")
	}
}

// Speculative pipeline: one stage shorter per hop at zero load, and
// still correct under load for all architectures.
func TestSpeculativePipeline(t *testing.T) {
	lat := func(spec bool) int64 {
		cfg := config.Default()
		cfg.Width, cfg.Height = 4, 4
		cfg.Arch = config.ViChaR
		cfg.Speculative = spec
		cfg.InjectionRate = 0
		cfg.WarmupPackets = 0
		cfg.MeasurePackets = 1
		n := New(&cfg)
		p := n.InjectPacket(0, 15)
		if left := n.Drain(5_000); left != 0 {
			t.Fatal("undelivered")
		}
		return p.Latency()
	}
	base := lat(false)
	spec := lat(true)
	if spec >= base {
		t.Fatalf("speculative latency %d not below baseline %d", spec, base)
	}
	// 6 hops + ejection: roughly one cycle saved per router.
	if base-spec < 5 {
		t.Fatalf("speculation saved only %d cycles over 7 routers", base-spec)
	}
}

func TestSpeculativeUnderLoadAllArchs(t *testing.T) {
	for _, arch := range allArchs {
		cfg := config.Default()
		cfg.Width, cfg.Height = 4, 4
		cfg.Arch = arch
		cfg.Speculative = true
		cfg.InjectionRate = 0.25
		cfg.WarmupPackets = 200
		cfg.MeasurePackets = 800
		cfg.Seed = 47
		n := New(&cfg)
		res := n.Run()
		if res.Saturated || res.MeasuredPackets != 800 {
			t.Fatalf("%v speculative run failed: %+v", arch, res)
		}
	}
}

// Queue/network latency decomposition must sum to the total and the
// queueing share must grow with offered load.
func TestLatencyDecomposition(t *testing.T) {
	run := func(rate float64) (q, net, total float64) {
		cfg := config.Default()
		cfg.Width, cfg.Height = 4, 4
		cfg.InjectionRate = rate
		cfg.WarmupPackets = 300
		cfg.MeasurePackets = 1200
		cfg.Seed = 53
		n := New(&cfg)
		res := n.Run()
		return res.AvgQueueLatency, res.AvgNetworkLatency, res.AvgLatency
	}
	q1, n1, t1 := run(0.10)
	if diff := t1 - q1 - n1; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("decomposition does not sum: %f + %f != %f", q1, n1, t1)
	}
	q2, _, _ := run(0.40)
	if q2 <= q1 {
		t.Fatalf("queueing latency did not grow with load: %.2f -> %.2f", q1, q2)
	}
}

// The new destination patterns complete end to end.
func TestNewDestinationPatterns(t *testing.T) {
	for _, dest := range []config.DestPattern{config.Transpose, config.BitComplement, config.Hotspot} {
		dest := dest
		t.Run(dest.String(), func(t *testing.T) {
			cfg := config.Default()
			cfg.Width, cfg.Height = 4, 4
			cfg.Dest = dest
			cfg.InjectionRate = 0.10
			cfg.WarmupPackets = 200
			cfg.MeasurePackets = 600
			cfg.Seed = 59
			n := New(&cfg)
			res := n.Run()
			if res.Saturated || res.MeasuredPackets != 600 {
				t.Fatalf("%v run failed: %+v", dest, res)
			}
		})
	}
}

// Channel loads must reflect the traffic pattern: under tornado, X
// links carry everything and Y links nothing; no link exceeds
// capacity.
func TestChannelLoads(t *testing.T) {
	cfg := config.Default()
	cfg.Width, cfg.Height = 4, 4
	cfg.Dest = config.Tornado
	cfg.InjectionRate = 0.15
	cfg.WarmupPackets = 200
	cfg.MeasurePackets = 800
	cfg.Seed = 61
	n := New(&cfg)
	res := n.Run()
	if len(res.ChannelLoads) == 0 {
		t.Fatal("no channel loads recorded")
	}
	if res.MaxChannelLoad <= 0 || res.MaxChannelLoad > 1.0001 {
		t.Fatalf("max channel load %.3f outside (0,1]", res.MaxChannelLoad)
	}
	var xFlits, yFlits float64
	for _, cl := range res.ChannelLoads {
		switch cl.Port {
		case topology.East, topology.West:
			xFlits += cl.Load
		case topology.North, topology.South:
			yFlits += cl.Load
		}
		if cl.Load > 1.0001 {
			t.Fatalf("link %d->%d overloaded: %.3f", cl.From, cl.To, cl.Load)
		}
	}
	if yFlits != 0 {
		t.Fatalf("tornado put %.3f flits/cycle on Y links", yFlits)
	}
	if xFlits <= 0 {
		t.Fatal("tornado moved nothing on X links")
	}
}

// Torus: every packet delivers under wrap-around routing with escape
// VCs, and wrap links genuinely shorten paths.
func TestTorusDelivery(t *testing.T) {
	for _, arch := range allArchs {
		arch := arch
		t.Run(arch.String(), func(t *testing.T) {
			cfg := config.Default()
			cfg.Width, cfg.Height = 4, 4
			cfg.Arch = arch
			cfg.Torus = true
			cfg.EscapeVCs = 1
			cfg.DeadlockThreshold = 32
			cfg.InjectionRate = 0.15
			cfg.WarmupPackets = 200
			cfg.MeasurePackets = 800
			cfg.Seed = 71
			n := New(&cfg)
			res := n.Run()
			if res.Saturated || res.MeasuredPackets != 800 {
				t.Fatalf("torus run failed: %+v", res)
			}
		})
	}
}

func TestTorusShortensPaths(t *testing.T) {
	lat := func(torus bool) int64 {
		cfg := config.Default()
		cfg.Width, cfg.Height = 8, 8
		cfg.Arch = config.ViChaR
		cfg.Torus = torus
		cfg.EscapeVCs = 1
		cfg.InjectionRate = 0
		cfg.WarmupPackets = 0
		cfg.MeasurePackets = 1
		n := New(&cfg)
		p := n.InjectPacket(0, 63) // corner to corner
		if left := n.Drain(10_000); left != 0 {
			t.Fatal("undelivered")
		}
		return p.Latency()
	}
	mesh, torus := lat(false), lat(true)
	// 14 hops vs 2 hops: the torus should save roughly 12 router
	// traversals' worth of cycles.
	if torus >= mesh-30 {
		t.Fatalf("torus latency %d not far below mesh %d", torus, mesh)
	}
}

// Deep saturation on the torus must never wedge: wrap rings close
// cycles, and the non-wrapping escape network plus timeouts must
// drain them.
func TestTorusNoWedge(t *testing.T) {
	for _, arch := range []config.BufferArch{config.Generic, config.ViChaR} {
		cfg := config.Default()
		cfg.Width, cfg.Height = 4, 4
		cfg.Arch = arch
		cfg.Torus = true
		cfg.EscapeVCs = 1
		cfg.DeadlockThreshold = 32
		cfg.Traffic = config.SelfSimilar
		cfg.InjectionRate = 0.45
		cfg.WarmupPackets = 1
		cfg.MeasurePackets = 1 << 30
		cfg.MaxCycles = 10_000
		cfg.Seed = 77
		if _, err := New(&cfg).RunWith(nil); err != nil {
			t.Fatalf("%v: %v", arch, err)
		}
	}
}

// Bit-complement sends every packet across the whole network; wrap
// links halve those paths, so the torus must deliver clearly lower
// latency at moderate load.
func TestBitComplementPrefersTorus(t *testing.T) {
	lat := func(torus bool) float64 {
		cfg := config.Default()
		cfg.Width, cfg.Height = 8, 8
		cfg.Arch = config.ViChaR
		cfg.Torus = torus
		cfg.EscapeVCs = 1
		cfg.Dest = config.BitComplement
		cfg.InjectionRate = 0.10
		cfg.WarmupPackets = 500
		cfg.MeasurePackets = 2_000
		cfg.MaxCycles = 60_000
		cfg.Seed = 81
		n := New(&cfg)
		res := n.Run()
		if res.Saturated {
			t.Fatalf("torus=%v saturated at 0.10", torus)
		}
		return res.AvgLatency
	}
	mesh, torus := lat(false), lat(true)
	if torus >= mesh*0.8 {
		t.Fatalf("bit-complement latency on torus %.1f not clearly below mesh %.1f", torus, mesh)
	}
}

// Flow conservation: the sum of all inter-router link loads must
// equal the delivered flit rate times the mean inter-router hop
// count of the traffic pattern. Any flit duplicated, dropped or
// misrouted breaks this equality.
func TestFlowConservation(t *testing.T) {
	cfg := config.Default()
	cfg.Width, cfg.Height = 4, 4
	cfg.InjectionRate = 0.20
	cfg.WarmupPackets = 500
	cfg.MeasurePackets = 4_000
	cfg.Seed = 101
	n := New(&cfg)
	res := n.Run()
	if res.Saturated {
		t.Fatal("saturated")
	}
	var sumLoads float64
	for _, cl := range res.ChannelLoads {
		sumLoads += cl.Load
	}
	// Mean Manhattan distance over distinct pairs of the 4x4 mesh.
	mesh := topology.New(4, 4)
	var hops, pairs float64
	for a := 0; a < 16; a++ {
		for b := 0; b < 16; b++ {
			if a != b {
				hops += float64(mesh.Hops(a, b))
				pairs++
			}
		}
	}
	meanHops := hops / pairs
	want := res.Throughput * meanHops
	if sumLoads < want*0.93 || sumLoads > want*1.07 {
		t.Fatalf("flow not conserved: Σ loads %.2f, throughput×hops %.2f", sumLoads, want)
	}
}

// Pre-saturation the network must accept what is offered: throughput
// equals the injection rate times the node count, for every
// architecture.
func TestThroughputTracksOfferedLoad(t *testing.T) {
	for _, arch := range allArchs {
		cfg := config.Default()
		cfg.Width, cfg.Height = 4, 4
		cfg.Arch = arch
		cfg.InjectionRate = 0.15
		cfg.WarmupPackets = 500
		cfg.MeasurePackets = 4_000
		cfg.Seed = 103
		n := New(&cfg)
		res := n.Run()
		offered := cfg.InjectionRate * float64(cfg.Nodes())
		if res.Throughput < offered*0.95 || res.Throughput > offered*1.05 {
			t.Fatalf("%v: accepted %.2f of %.2f offered flits/cycle", arch, res.Throughput, offered)
		}
	}
}

// Percentiles from a live run are ordered and bracket the mean.
func TestLivePercentileOrdering(t *testing.T) {
	cfg := config.Default()
	cfg.Width, cfg.Height = 4, 4
	cfg.InjectionRate = 0.30
	cfg.WarmupPackets = 300
	cfg.MeasurePackets = 2_000
	cfg.Seed = 107
	n := New(&cfg)
	res := n.Run()
	if !(res.P50Latency <= res.P95Latency && res.P95Latency <= res.P99Latency &&
		res.P99Latency <= float64(res.MaxLatency)) {
		t.Fatalf("percentiles unordered: %+v", res)
	}
	if res.AvgLatency < res.P50Latency*0.5 || res.AvgLatency > float64(res.MaxLatency) {
		t.Fatalf("mean %.1f outside the distribution", res.AvgLatency)
	}
}
