package network

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"vichar/internal/config"
	"vichar/internal/flit"
	"vichar/internal/stats"
	"vichar/internal/topology"
)

func testCfg(arch config.BufferArch) config.Config {
	cfg := config.Default()
	cfg.Width, cfg.Height = 4, 4
	cfg.Arch = arch
	cfg.InjectionRate = 0
	cfg.WarmupPackets = 0
	cfg.MeasurePackets = 1
	cfg.Seed = 11
	return cfg
}

var allArchs = []config.BufferArch{config.Generic, config.ViChaR, config.DAMQ, config.FCCB}

// Every packet injected must be delivered, for every architecture,
// under a random many-packet workload.
func TestAllPacketsDelivered(t *testing.T) {
	for _, arch := range allArchs {
		arch := arch
		t.Run(arch.String(), func(t *testing.T) {
			cfg := testCfg(arch)
			n := New(&cfg)
			rng := rand.New(rand.NewSource(5))
			var pkts []*struct {
				src, dst int
				id       uint64
			}
			for i := 0; i < 400; i++ {
				// Spread injections over time to vary interleaving.
				for c := 0; c < rng.Intn(3); c++ {
					n.Step()
				}
				src := rng.Intn(16)
				dst := rng.Intn(15)
				if dst >= src {
					dst++
				}
				p := n.InjectPacket(src, dst)
				pkts = append(pkts, &struct {
					src, dst int
					id       uint64
				}{src, dst, p.ID})
			}
			if left := n.Drain(100_000); left != 0 {
				t.Fatalf("%d packets never delivered", left)
			}
		})
	}
}

// The same seed must reproduce identical results bit-for-bit.
func TestDeterministicReplay(t *testing.T) {
	for _, arch := range allArchs {
		cfg := config.Default()
		cfg.Width, cfg.Height = 4, 4
		cfg.Arch = arch
		cfg.InjectionRate = 0.25
		cfg.WarmupPackets = 300
		cfg.MeasurePackets = 1000
		cfg.Seed = 1234

		run := func() (float64, float64, int64) {
			n := New(&cfg)
			r := n.Run()
			return r.AvgLatency, r.Throughput, r.TotalCycles
		}
		l1, t1, c1 := run()
		l2, t2, c2 := run()
		if l1 != l2 || t1 != t2 || c1 != c2 {
			t.Fatalf("%v: replay diverged: (%.4f,%.4f,%d) vs (%.4f,%.4f,%d)",
				arch, l1, t1, c1, l2, t2, c2)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	cfg := config.Default()
	cfg.Width, cfg.Height = 4, 4
	cfg.InjectionRate = 0.25
	cfg.WarmupPackets = 300
	cfg.MeasurePackets = 1000

	lat := func(seed int64) float64 {
		c := cfg
		c.Seed = seed
		n := New(&c)
		return n.Run().AvgLatency
	}
	if lat(1) == lat(2) {
		t.Fatal("different seeds produced identical latency (suspicious)")
	}
}

// FC-CB is a DAMQ with no bookkeeping delay: the two organizations are
// one buffer type differing only in that delay, so at DAMQDelay 0 whole
// runs — every Results field but the label, and every measured latency
// in ejection order — must be identical, below saturation and near it.
func TestDAMQZeroDelayNetworkMatchesFCCB(t *testing.T) {
	for _, rate := range []float64{0.2, 0.6} {
		for _, seed := range []int64{1, 2} {
			run := func(arch config.BufferArch) (stats.Results, []int64) {
				cfg := config.Default()
				cfg.Width, cfg.Height = 4, 4
				cfg.Arch = arch
				cfg.DAMQDelay = 0
				cfg.InjectionRate = rate
				cfg.WarmupPackets = 500
				cfg.MeasurePackets = 3000
				cfg.Seed = seed
				n := New(&cfg)
				defer n.Close()
				res := n.Run()
				res.Label = ""
				return res, n.Collector().Latencies()
			}
			fres, flat := run(config.FCCB)
			dres, dlat := run(config.DAMQ)
			if fres.Saturated || len(flat) == 0 {
				t.Fatalf("rate %g seed %d: FC-CB run saturated or measured nothing", rate, seed)
			}
			if !reflect.DeepEqual(fres, dres) {
				t.Errorf("rate %g seed %d: results differ:\nFC-CB %+v\nDAMQ  %+v", rate, seed, fres, dres)
			}
			if !reflect.DeepEqual(flat, dlat) {
				t.Errorf("rate %g seed %d: latencies differ", rate, seed)
			}
		}
	}
}

// After a full drain, every buffer is empty and every credit has
// returned: flit and credit conservation end to end.
func TestCreditConservationAfterDrain(t *testing.T) {
	for _, arch := range allArchs {
		arch := arch
		t.Run(arch.String(), func(t *testing.T) {
			cfg := testCfg(arch)
			n := New(&cfg)
			rng := rand.New(rand.NewSource(9))
			for i := 0; i < 300; i++ {
				src := rng.Intn(16)
				dst := rng.Intn(15)
				if dst >= src {
					dst++
				}
				n.InjectPacket(src, dst)
				if i%5 == 0 {
					n.Step()
				}
			}
			if left := n.Drain(100_000); left != 0 {
				t.Fatalf("%d packets stuck", left)
			}
			// A few extra cycles so trailing credits land.
			for i := 0; i < 10; i++ {
				n.Step()
			}
			for id := 0; id < 16; id++ {
				r := n.Router(id)
				if r.Occupied() != 0 {
					t.Fatalf("router %d still buffers %d flits", id, r.Occupied())
				}
				for p := 0; p < 5; p++ {
					view := r.OutputView(p)
					if p != topology.Local && view != nil {
						if view.FreeSlots() != freeSlotsWhenIdle(&cfg) {
							t.Fatalf("router %d port %d: %d free slots, want %d",
								id, p, view.FreeSlots(), freeSlotsWhenIdle(&cfg))
						}
						if view.OutstandingVCs() != 0 {
							t.Fatalf("router %d port %d: %d outstanding VCs after drain",
								id, p, view.OutstandingVCs())
						}
					}
				}
			}
		})
	}
}

// freeSlotsWhenIdle returns the shared-pool credit a fully drained
// view must show: everything for generic (summed private credits) and
// ViChaR (all reservations returned with their tokens), the pool
// minus the permanent per-queue reservations for DAMQ/FC-CB.
func freeSlotsWhenIdle(cfg *config.Config) int {
	if cfg.Arch == config.DAMQ || cfg.Arch == config.FCCB {
		return cfg.BufferSlots - cfg.VCs
	}
	return cfg.BufferSlots
}

// Per-packet flit order: the tail must never be ejected before
// later packets' creation violates nothing — verified stronger
// at the buffer level; here we check tail-only ejection accounting
// matched packet count (done via Drain) and latency sanity per hop.
func TestLatencyLowerBound(t *testing.T) {
	cfg := testCfg(config.ViChaR)
	n := New(&cfg)
	p := n.InjectPacket(0, 15) // corner to corner: 6 hops
	if left := n.Drain(10_000); left != 0 {
		t.Fatal("undelivered")
	}
	// Minimum: each of 6 hops costs at least 1 cycle of link plus
	// pipeline; 4-flit serialization adds 3. Anything under ~10 would
	// mean the pipeline is being skipped.
	if p.Latency() < 10 {
		t.Fatalf("latency %d below physical floor", p.Latency())
	}
}

func TestSaturationCapStopsRun(t *testing.T) {
	cfg := config.Default()
	cfg.Width, cfg.Height = 4, 4
	cfg.InjectionRate = 0.9 // far beyond saturation
	cfg.WarmupPackets = 1000
	cfg.MeasurePackets = 100_000 // unreachable quota
	cfg.MaxCycles = 3_000
	n := New(&cfg)
	res := n.Run()
	if !res.Saturated {
		t.Fatal("cap hit but not flagged saturated")
	}
	if res.TotalCycles > cfg.MaxCycles+1 {
		t.Fatalf("ran %d cycles past the cap", res.TotalCycles)
	}
}

func TestTornadoAndSelfSimilarComplete(t *testing.T) {
	for _, arch := range []config.BufferArch{config.Generic, config.ViChaR} {
		cfg := config.Default()
		cfg.Width, cfg.Height = 4, 4
		cfg.Arch = arch
		cfg.Traffic = config.SelfSimilar
		cfg.Dest = config.Tornado
		cfg.InjectionRate = 0.15
		cfg.WarmupPackets = 200
		cfg.MeasurePackets = 800
		cfg.Seed = 3
		n := New(&cfg)
		res := n.Run()
		if res.Saturated {
			t.Fatalf("%v: SS+TN run saturated at 0.15", arch)
		}
		if res.AvgLatency <= 0 {
			t.Fatalf("%v: no latency recorded", arch)
		}
	}
}

// Adaptive routing with escape VCs must complete under heavy
// contention for every architecture (the deadlock-recovery test).
func TestAdaptiveNoWedge(t *testing.T) {
	for _, arch := range allArchs {
		arch := arch
		t.Run(arch.String(), func(t *testing.T) {
			cfg := config.Default()
			cfg.Width, cfg.Height = 4, 4
			cfg.Arch = arch
			cfg.Routing = config.MinimalAdaptive
			cfg.EscapeVCs = 1
			cfg.DeadlockThreshold = 32
			cfg.InjectionRate = 0
			cfg.WarmupPackets = 0
			cfg.MeasurePackets = 1
			cfg.Seed = 13
			n := New(&cfg)
			// All-to-all bursts maximize cyclic contention.
			rng := rand.New(rand.NewSource(17))
			for burst := 0; burst < 8; burst++ {
				for src := 0; src < 16; src++ {
					dst := rng.Intn(15)
					if dst >= src {
						dst++
					}
					n.InjectPacket(src, dst)
				}
				n.Step()
			}
			// No cycle budget: the watchdog is what ends a wedged drain.
			left := n.Drain(math.MaxInt64)
			if err := n.CheckProgress(); err != nil {
				t.Fatalf("%v: %v", arch, err)
			}
			if left != 0 {
				t.Fatalf("%v: %d packets undelivered", arch, left)
			}
		})
	}
}

// The ejection assertion must catch mis-delivered flits; simulate by
// checking the panic path indirectly: a normal run must never panic.
func TestNoPanicsUnderLoad(t *testing.T) {
	for _, arch := range allArchs {
		cfg := config.Default()
		cfg.Width, cfg.Height = 4, 4
		cfg.Arch = arch
		cfg.InjectionRate = 0.45 // at/over saturation: worst case
		cfg.WarmupPackets = 200
		cfg.MeasurePackets = 800
		cfg.MaxCycles = 30_000
		cfg.Seed = 23
		n := New(&cfg)
		_ = n.Run() // success == no panic from flow-control violations
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	cfg := config.Default()
	cfg.Width = 0
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config did not panic")
		}
	}()
	New(&cfg)
}

// The ejection invariant compares the packet destination against the
// node whose processing element received the flit: delivery anywhere
// else is a routing bug and must panic, at the right node it must not.
func TestEjectAtWrongNodePanics(t *testing.T) {
	cfg := testCfg(config.ViChaR)
	n := New(&cfg)
	defer n.Close()
	head := flit.MakeFlits(&flit.Packet{ID: 1, Src: 0, Dst: 5, Size: 2})[0]
	n.eject(5, head, 1)
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "ejected at wrong node") {
			t.Fatalf("ejecting a flit for node 5 at node 6: got %q, want the wrong-node invariant panic", msg)
		}
	}()
	n.eject(6, head, 1)
}

func TestVCLimitRuns(t *testing.T) {
	cfg := config.Default()
	cfg.Width, cfg.Height = 4, 4
	cfg.Arch = config.ViChaR
	cfg.VCLimit = 4
	cfg.InjectionRate = 0.2
	cfg.WarmupPackets = 200
	cfg.MeasurePackets = 500
	n := New(&cfg)
	res := n.Run()
	if res.Saturated || res.MeasuredPackets != 500 {
		t.Fatalf("capped ViChaR run failed: %+v", res)
	}
	// The in-use VC count can never exceed the cap.
	if res.AvgInUseVCs > 4 {
		t.Fatalf("in-use VCs %.2f above the cap", res.AvgInUseVCs)
	}
}

func TestCountersAccumulate(t *testing.T) {
	cfg := config.Default()
	cfg.Width, cfg.Height = 4, 4
	cfg.InjectionRate = 0.2
	cfg.WarmupPackets = 200
	cfg.MeasurePackets = 800
	n := New(&cfg)
	res := n.Run()
	c := res.Counters
	if c.BufferWrites == 0 || c.BufferReads == 0 || c.XbarTraversals == 0 ||
		c.LinkTraversals == 0 || c.VAOps == 0 || c.SAOps == 0 || c.VCGrants == 0 {
		t.Fatalf("counters incomplete: %+v", c)
	}
	// Reads cannot exceed writes globally (every read had a write).
	if c.BufferReads > c.BufferWrites+uint64(cfg.Nodes()*cfg.Ports()*cfg.BufferSlots) {
		t.Fatalf("reads %d outstrip writes %d", c.BufferReads, c.BufferWrites)
	}
}

// A capped-dispenser ViChaR behaves like a v-VC unified buffer and
// still conserves everything through a drain.
func TestCappedViCharDrain(t *testing.T) {
	cfg := config.Default()
	cfg.Width, cfg.Height = 4, 4
	cfg.Arch = config.ViChaR
	cfg.VCLimit = 2
	cfg.InjectionRate = 0
	cfg.WarmupPackets = 0
	cfg.MeasurePackets = 1
	n := New(&cfg)
	for i := 0; i < 60; i++ {
		n.InjectPacket(i%16, (i+7)%16)
		n.Step()
	}
	if left := n.Drain(100_000); left != 0 {
		t.Fatalf("%d packets stuck with capped dispenser", left)
	}
}

// Rectangular meshes (non-square) work end to end.
func TestRectangularMesh(t *testing.T) {
	cfg := config.Default()
	cfg.Width, cfg.Height = 6, 3
	cfg.InjectionRate = 0.15
	cfg.WarmupPackets = 200
	cfg.MeasurePackets = 600
	cfg.Seed = 93
	n := New(&cfg)
	res := n.Run()
	if res.Saturated || res.MeasuredPackets != 600 {
		t.Fatalf("6x3 mesh failed: %+v", res)
	}
	// Transpose on a rectangle is not a permutation; the config layer
	// rejects it rather than delivering skewed load.
	cfg.Dest = config.Transpose
	if err := cfg.Validate(); err == nil {
		t.Fatal("6x3 transpose validated")
	}
}

// Speculative + torus + adaptive together: the feature matrix's far
// corner still delivers.
func TestFeatureMatrixCorner(t *testing.T) {
	cfg := config.Default()
	cfg.Width, cfg.Height = 4, 4
	cfg.Arch = config.ViChaR
	cfg.Torus = true
	cfg.Routing = config.MinimalAdaptive
	cfg.EscapeVCs = 2
	cfg.DeadlockThreshold = 24
	cfg.Speculative = true
	cfg.PacketSize = 1
	cfg.PacketSizeMax = 6
	cfg.Traffic = config.SelfSimilar
	cfg.InjectionRate = 0.2
	cfg.WarmupPackets = 200
	cfg.MeasurePackets = 800
	cfg.Seed = 97
	n := New(&cfg)
	res := n.Run()
	if res.Saturated || res.MeasuredPackets != 800 {
		t.Fatalf("feature-matrix corner failed: %+v", res)
	}
}
