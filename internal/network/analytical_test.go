package network

import (
	"fmt"
	"testing"

	"vichar/internal/config"
)

// zeroLoadLatency is the closed-form latency of a size-flit packet
// over hops hops through an otherwise empty network, from the cycle
// InjectPacket stamps as CreatedAt to the cycle its tail ejects:
//
//	perRouter*(hops+1) + size + 1 + (hops+size)*max(damqDelay-1, 0)
//
// Term by term:
//
//   - perRouter*(hops+1): each of the hops+1 routers holds the head
//     perRouter cycles from its buffer write to its arrival at the next
//     router or the destination NI — RC, VA, SA, ST+link (4), or RC,
//     VA+SA, ST+link (3) in the speculative pipeline.
//   - size + 1 is three terms. size-1: the tail trails the head by one
//     cycle of serialization per body flit. 1: the injection link from
//     the NI to the source router. And the trailing 1: the cycle the
//     packet is created in. InjectPacket stamps CreatedAt with the
//     cycle Step last ran, so the NI sends the head in the next Step,
//     one cycle later.
//   - The DAMQ's bookkeeping delay d makes a written flit readable d
//     cycles after its write instead of 1, which costs the head d-1 at
//     each of the hops+1 routers. Its read-port busy window spaces the
//     flits d cycles apart instead of 1, which costs the tail d-1 per
//     body flit. A delay of 0 or 1 costs nothing.
func zeroLoadLatency(hops, size, perRouter, damqDelay int) int64 {
	return int64(perRouter*(hops+1) + size + 1 + (hops+size)*max(damqDelay-1, 0))
}

// settle steps n until every node sleeps and every link is empty,
// then past any DAMQ read-port window, so the next packet meets the
// network as a fresh one would.
func settle(t *testing.T, n *Network) {
	t.Helper()
	for i := 0; ; i++ {
		busy := false
		for id := range n.routers {
			busy = busy || n.computeActive[id] || n.deliverLinks[id] != 0
		}
		if !busy {
			break
		}
		if i == 1000 {
			t.Fatal("network never went quiescent")
		}
		n.Step()
	}
	for i := 0; i < n.cfg.DAMQDelay; i++ {
		n.Step()
	}
}

// checkZeroLoad sends one packet of every size in {1, 4, 7} between
// every ordered pair of nodes of a 6x5 mesh, each alone in the
// network, and requires every latency to equal zeroLoadLatency
// exactly.
func checkZeroLoad(t *testing.T, arch config.BufferArch, speculative bool, damqDelay int) {
	cfg := config.Default()
	cfg.Width, cfg.Height = 6, 5
	cfg.Arch = arch
	cfg.Speculative = speculative
	cfg.DAMQDelay = damqDelay
	cfg.InjectionRate = 0
	cfg.WarmupPackets = 0
	cfg.MeasurePackets = 1
	perRouter := 4
	if speculative {
		perRouter = 3
	}
	d := 0
	if arch == config.DAMQ {
		d = damqDelay
	}
	n := New(&cfg)
	defer n.Close()
	mismatches := 0
	for src := 0; src < cfg.Nodes(); src++ {
		for dst := 0; dst < cfg.Nodes(); dst++ {
			if src == dst {
				continue
			}
			for _, size := range []int{1, 4, 7} {
				p := n.InjectPacketSized(src, dst, size)
				if left := n.Drain(10_000); left != 0 {
					t.Fatalf("%d->%d size %d: undelivered", src, dst, size)
				}
				hops := n.mesh.Hops(src, dst)
				if got, want := p.Latency(), zeroLoadLatency(hops, size, perRouter, d); got != want {
					if mismatches++; mismatches <= 5 {
						t.Errorf("%d->%d (H=%d) size %d: latency %d, model %d", src, dst, hops, size, got, want)
					}
				}
				settle(t, n)
			}
		}
	}
	if mismatches > 5 {
		t.Errorf("%d mismatches in all", mismatches)
	}
}

// Zero-load latency must match the pipeline model exactly for every
// organization (the DAMQ at its configured delay), which pins the
// cycle accounting of the whole simulator against a closed form.
func TestZeroLoadLatencyModel(t *testing.T) {
	for _, arch := range allArchs {
		t.Run(arch.String(), func(t *testing.T) {
			checkZeroLoad(t, arch, false, config.Default().DAMQDelay)
		})
	}
}

// The speculative pipeline's zero-load model: 3 cycles per router.
func TestZeroLoadLatencyModelSpeculative(t *testing.T) {
	for _, arch := range allArchs {
		t.Run(arch.String(), func(t *testing.T) {
			checkZeroLoad(t, arch, true, config.Default().DAMQDelay)
		})
	}
}

// DAMQ's bookkeeping penalty appears in zero-load latency as the
// model's delay term, at every delay and in both pipelines.
func TestZeroLoadDAMQPenalty(t *testing.T) {
	for d := 0; d <= 4; d++ {
		for _, spec := range []bool{false, true} {
			t.Run(fmt.Sprintf("delay=%d/speculative=%v", d, spec), func(t *testing.T) {
				checkZeroLoad(t, config.DAMQ, spec, d)
			})
		}
	}
}
