package network

import (
	"testing"

	"vichar/internal/config"
)

// Regression: shared-buffer schemes deadlocked under bursty traffic
// before per-VC slot reservations were added to the credit views. The
// failure mode: a pool fills with flits of packets waiting for VC
// tokens that are held by packets whose own flits cannot enter the
// pool — hold-and-wait through the shared storage, independent of the
// routing algorithm's acyclicity. This exact seed wedged a ViC-8
// network permanently at cycle ~15,000.
func TestSharedBufferDeadlockRegression(t *testing.T) {
	cfg := config.Default()
	cfg.Arch = config.ViChaR
	cfg.BufferSlots = 8
	cfg.Traffic = config.SelfSimilar
	cfg.InjectionRate = 0.35
	cfg.WarmupPackets = 2_000
	cfg.MeasurePackets = 6_000
	cfg.Seed = -4538974679908472910

	n := New(&cfg)
	res, err := n.RunWith(nil)
	if err != nil {
		t.Fatalf("formerly wedging workload wedged again: %v", err)
	}
	if res.Throughput < 10 {
		t.Fatalf("throughput collapsed: %.2f flits/cycle", res.Throughput)
	}
}

// Every shared-buffer architecture must keep ejecting under deep
// saturation, however rare the interleaving that would wedge it: the
// run goes to its cycle cap, and the watchdog must not fire on the way.
func TestNoWedgeUnderDeepSaturation(t *testing.T) {
	archs := []config.BufferArch{config.ViChaR, config.DAMQ, config.FCCB}
	for _, arch := range archs {
		arch := arch
		t.Run(arch.String(), func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				cfg := config.Default()
				cfg.Width, cfg.Height = 4, 4
				cfg.Arch = arch
				cfg.BufferSlots = 8
				if arch != config.ViChaR {
					cfg.VCs = 4
				}
				cfg.Traffic = config.SelfSimilar
				cfg.InjectionRate = 0.45 // far past saturation
				cfg.WarmupPackets = 1
				cfg.MeasurePackets = 1 << 30 // never met: run to the cap
				cfg.MaxCycles = 12_000
				cfg.Seed = seed

				if _, err := New(&cfg).RunWith(nil); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

// Fig 12(i)'s ViC-16 points at 0.40-0.50 deadlocked until each escape
// set got its own grant reserve: adaptive traffic filled the downstream
// pools, and every waiting head was on the escape path with no slot to
// carry an escape token's reservation. The 0.40 point, under the
// auditor, must now complete.
func TestAdaptiveEscapeReserve(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		cfg := config.Default()
		cfg.Arch = config.ViChaR
		cfg.Routing = config.MinimalAdaptive
		cfg.EscapeVCs = 1
		cfg.InjectionRate = 0.40
		cfg.WarmupPackets = 2_000
		cfg.MeasurePackets = 6_000
		cfg.Audit = true
		cfg.Seed = seed
		n := New(&cfg)
		res, err := n.RunWith(nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Saturated {
			t.Fatalf("seed %d: hit its cycle cap at cycle %d", seed, n.Now())
		}
	}
}

// The reservation bookkeeping must survive a full drain: this is the
// conservation check specialized to the smallest pools, where every
// slot is a reservation at some point.
func TestTinyPoolDrainConservation(t *testing.T) {
	cfg := config.Default()
	cfg.Width, cfg.Height = 4, 4
	cfg.Arch = config.ViChaR
	cfg.BufferSlots = 4 // four slots, up to four VCs
	cfg.PacketSize = 4
	cfg.InjectionRate = 0
	cfg.WarmupPackets = 0
	cfg.MeasurePackets = 1
	n := New(&cfg)
	for i := 0; i < 50; i++ {
		n.InjectPacket(i%16, (i+5)%16)
		n.Step()
	}
	if left := n.Drain(100_000); left != 0 {
		t.Fatalf("%d packets stuck in tiny-pool network", left)
	}
	for i := 0; i < 10; i++ {
		n.Step()
	}
	for id := 0; id < 16; id++ {
		r := n.Router(id)
		for p := 0; p < 4; p++ {
			if v := r.OutputView(p); v != nil {
				if v.FreeSlots() != 4 || v.OutstandingVCs() != 0 {
					t.Fatalf("router %d port %d: free=%d outstanding=%d after drain",
						id, p, v.FreeSlots(), v.OutstandingVCs())
				}
			}
		}
	}
}
