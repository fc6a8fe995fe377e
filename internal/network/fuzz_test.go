package network

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"vichar/internal/buffers"
	"vichar/internal/config"
	"vichar/internal/flit"
)

// Config-space fuzz: random combinations of architecture, topology,
// routing, pipeline, packet sizing and traffic must always (a) build,
// (b) deliver every packet, and (c) conserve buffers and credits
// after a drain. This is the broadest invariant sweep in the suite —
// any flow-control hole in a feature interaction shows up here as a
// panic or as the watchdog's wedge verdict, which also ends the drain.
func TestConfigFuzz(t *testing.T) {
	prop := func(bits uint32, seed int64) bool {
		cfg := config.Default()
		cfg.Width = 3 + int(bits%3)       // 3..5
		cfg.Height = 3 + int((bits>>2)%2) // 3..4
		cfg.Arch = config.BufferArch(int(bits>>4) % 4)
		cfg.Torus = bits>>6&1 == 1
		cfg.Speculative = bits>>7&1 == 1
		// Bit 8 chose atomic or non-atomic generic VC allocation; only
		// atomic remains, and the bit stays unused so no other bit moves.
		if bits>>9&1 == 1 {
			cfg.Routing = config.MinimalAdaptive
		}
		cfg.PacketSize = 1 + int((bits>>10)%4) // 1..4
		if bits>>12&1 == 1 {
			cfg.PacketSizeMax = cfg.PacketSize + int((bits>>13)%4)
		}
		if cfg.Arch == config.Generic {
			cfg.VCs, cfg.VCDepth = 4, 2+int((bits>>15)%3) // depth 2..4
			cfg.BufferSlots = cfg.VCs * cfg.VCDepth
		} else {
			cfg.BufferSlots = 6 + int((bits>>15)%10) // 6..15
			cfg.VCs = 4
		}
		if cfg.Arch == config.ViChaR && bits>>19&1 == 1 {
			cfg.VCLimit = 3 + int((bits>>20)%4)
		}
		cfg.EscapeVCs = 1
		cfg.DeadlockThreshold = 24
		cfg.InjectionRate = 0
		cfg.WarmupPackets = 0
		cfg.MeasurePackets = 1
		cfg.Seed = seed

		if err := cfg.Validate(); err != nil {
			// Some random corners are legitimately invalid (e.g. a
			// capped ViChaR whose escape set eats every VC); skip.
			return true
		}

		n := New(&cfg)
		// Burst-inject a modest workload.
		nodes := cfg.Nodes()
		for i := 0; i < 5*nodes; i++ {
			src := i % nodes
			dst := (i*7 + 3) % nodes
			if src == dst {
				continue
			}
			n.InjectPacket(src, dst)
			if i%3 == 0 {
				n.Step()
			}
		}
		left := n.Drain(math.MaxInt64)
		if err := n.CheckProgress(); err != nil {
			t.Logf("cfg %+v: %v", cfg, err)
			return false
		}
		if left != 0 {
			t.Logf("cfg %+v: %d packets undelivered", cfg, left)
			return false
		}
		for i := 0; i < 10; i++ {
			n.Step()
		}
		for id := 0; id < nodes; id++ {
			if n.Router(id).Occupied() != 0 {
				t.Logf("cfg %+v: router %d holds flits after drain", cfg, id)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// FuzzQueuesAudit drives a random but protocol-legal write/read/drain
// sequence against an input buffer of any organization and runs its
// slot-pool audit after every operation: no slot linked twice or
// leaked, no free slot holding a flit, every queue within its depth,
// its VC and wormhole order, occupancy equal to the queue lengths and
// one packet per queue (the driver's discipline for every shape, the
// Token Dispenser's promise for ViChaR) must hold at every intermediate
// state. The driver also models the shape: occupancy, every VC's free
// slots (min of depth and pool headroom) and whether its head is
// readable (arrival + max(delay, 1), and a DAMQ's read port busy for
// delay cycles after a pop) must match its own accounting.
//
// Input encoding: byte 0 picks the shape — its low four bits size the
// pool (1..16 slots), bits 4-5 the organization (ViChaR with a queue
// per slot, GEN with up to four queues partitioning the pool, DAMQ
// with the default bookkeeping delay, FC-CB; the fixed ones with up
// to four queues). Each further byte is one operation — the top two
// bits select write / pop / advance-clock / drain-readable, the low
// bits pick the VC and, for writes that open a packet, its size.
func FuzzQueuesAudit(f *testing.F) {
	f.Add([]byte{0x07, 0x00, 0x04, 0x81, 0x00, 0x41, 0xc0, 0x82})
	f.Add([]byte{0x0f, 0x00, 0x00, 0x00, 0x80, 0x40, 0x40, 0x40, 0xc1})
	f.Add([]byte{0x1b, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x41, 0xc0, 0x02, 0x03})
	f.Add([]byte{0x2f, 0x00, 0x00, 0x41, 0x80, 0x80, 0x80, 0x41, 0x80, 0x80, 0x80, 0xc0, 0x41})
	f.Add([]byte{0x35, 0x00, 0x05, 0x01, 0x80, 0x41, 0x00, 0xc2})
	f.Add([]byte{0x2f, 0x0c, 0x0c, 0x0c, 0x80, 0x80, 0x80, 0x80, 0x40, 0x80, 0x40})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		slots, fixed := 1+int(ops[0])%16, min(4, 1+int(ops[0])%16)
		var b *buffers.Queues
		depth, delay := slots, int64(0)
		switch ops[0] >> 4 & 3 {
		case 0:
			b = buffers.NewViChaR(slots, slots)
		case 1:
			depth = slots / fixed
			b = buffers.NewGeneric(fixed, depth)
		case 2:
			delay = int64(config.Default().DAMQDelay)
			b = buffers.NewDAMQ(fixed, slots, int(delay))
		case 3:
			b = buffers.NewFCCB(fixed, slots)
		}
		vcs, pool := b.MaxVCs(), b.Slots()
		// Per-VC driver state: the packet currently streaming through
		// the VC, their write and read progress.
		type vcDriver struct {
			flits  []*flit.Flit
			next   int   // flits written so far
			popped int   // flits popped so far (== next seq expected out)
			busy   int64 // first cycle the read port is free again
		}
		st := make([]vcDriver, vcs)
		resident := 0
		now := int64(1)
		var nextID uint64

		pop := func(vc int) {
			fr := b.Front(vc, now)
			if fr == nil {
				return
			}
			got, err := b.Pop(vc, now)
			if err != nil {
				t.Fatalf("pop vc %d with readable front: %v", vc, err)
			}
			s := &st[vc]
			if got.Seq != s.popped {
				t.Fatalf("vc %d popped seq %d, want %d", vc, got.Seq, s.popped)
			}
			s.popped++
			s.busy = now + delay
			resident--
		}

		for _, op := range ops[1:] {
			vc := int(op&0x3f) % vcs
			switch op >> 6 {
			case 0: // write the VC's next flit, opening a packet if needed
				s := &st[vc]
				if s.next == len(s.flits) {
					if b.Len(vc) != 0 {
						// The finished packet still has flits resident:
						// starting another would break one-packet-per-VC.
						continue
					}
					nextID++
					p := &flit.Packet{ID: nextID, Size: 1 + int(op>>2)%4}
					s.flits = flit.MakeFlits(p)
					s.next, s.popped = 0, 0
				}
				fl := s.flits[s.next]
				fl.VC = vc
				if err := b.Write(fl, now); err != nil {
					if !errors.Is(err, buffers.ErrFull) {
						t.Fatalf("write vc %d: %v", vc, err)
					}
					// Queue or pool exhausted: a legal stall; retry later.
					continue
				}
				s.next++
				resident++
			case 1:
				pop(vc)
			case 2:
				now++
			case 3: // drain everything readable this cycle
				for v := 0; v < vcs; v++ {
					for b.Front(v, now) != nil {
						pop(v)
					}
				}
			}
			if err := b.Audit(true); err != nil {
				t.Fatalf("after op %#02x: %v", op, err)
			}
			if b.Occupied() != resident {
				t.Fatalf("occupancy %d, driver accounts %d", b.Occupied(), resident)
			}
			for v := range st {
				s := &st[v]
				held := s.next - s.popped
				if want := min(depth-held, pool-resident); b.FreeSlotsFor(v) != want {
					t.Fatalf("after op %#02x: vc %d has %d free slots, want %d", op, v, b.FreeSlotsFor(v), want)
				}
				ready := held > 0 && now >= max(s.flits[s.popped].ArrivedAt+max(delay, 1), s.busy)
				if (b.Front(v, now) != nil) != ready {
					t.Fatalf("after op %#02x: vc %d head readable %v at cycle %d, want %v", op, v, !ready, now, ready)
				}
			}
		}
	})
}
