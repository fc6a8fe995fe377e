package buffers

import (
	"fmt"

	"vichar/internal/flit"
)

// Audit cross-checks the slot pool's bookkeeping and returns the first
// violation, or nil. The network's invariant auditor (Config.Audit)
// runs it on every input port every cycle:
//
//   - every slot is linked at most once, into one queue or the free
//     chain, and linked plus free slots make up the pool (no leak);
//   - no free slot holds a flit, and every queued slot does;
//   - every queue stays within its depth, and the occupancy register
//     equals the sum of the queue lengths;
//   - every flit carries its queue's VC, and each queue's flits are in
//     wormhole order (flit.Follows);
//   - with onePacket, a queue holds one packet: ViChaR's Token
//     Dispenser hands a VC to a packet only while it is free, so its
//     router passes true; the buffer itself accepts any wormhole order.
func (b *Queues) Audit(onePacket bool) error {
	//vichar:alloc slot marks on the opt-in audit path (Config.Audit), not the steady-state tick
	seen := make([]bool, len(b.slots))
	// mark claims slot s for owner, failing on a slot out of range or
	// already claimed.
	mark := func(s int16, owner string) error {
		if s < 0 || int(s) >= len(b.slots) {
			//vichar:alloc violation reporting on the opt-in audit path (Config.Audit), not the steady-state tick
			return fmt.Errorf("buffers: %s links slot %d outside the pool of %d", owner, s, len(b.slots))
		}
		if seen[s] {
			//vichar:alloc violation reporting on the opt-in audit path (Config.Audit), not the steady-state tick
			return fmt.Errorf("buffers: slot %d linked twice (again by %s)", s, owner)
		}
		seen[s] = true
		return nil
	}
	queued := 0
	for vc := range b.head {
		n := int(b.count[vc])
		if n > b.depth {
			//vichar:alloc violation reporting on the opt-in audit path (Config.Audit), not the steady-state tick
			return fmt.Errorf("buffers: queue %d holds %d flits, beyond its depth %d", vc, n, b.depth)
		}
		queued += n
		s := b.head[vc]
		var prev *flit.Flit
		for i := 0; i < n; i++ {
			if i > 0 {
				s = b.next[s]
			}
			//vichar:alloc violation reporting inlined from mark, on the opt-in audit path (Config.Audit)
			if err := mark(s, "a queue"); err != nil {
				return err
			}
			f := b.slots[s]
			switch {
			case f == nil:
				//vichar:alloc violation reporting on the opt-in audit path (Config.Audit), not the steady-state tick
				return fmt.Errorf("buffers: queue %d links empty slot %d", vc, s)
			case f.VC != vc:
				//vichar:alloc violation reporting on the opt-in audit path (Config.Audit), not the steady-state tick
				return fmt.Errorf("buffers: slot %d holds a flit of vc %d but sits in queue %d", s, f.VC, vc)
			case prev != nil && onePacket && f.Pkt != prev.Pkt:
				//vichar:alloc violation reporting on the opt-in audit path (Config.Audit), not the steady-state tick
				return fmt.Errorf("buffers: queue %d holds flits of packets %d and %d: one-packet-per-VC violated", vc, prev.Pkt.ID, f.Pkt.ID)
			case prev != nil && !f.Follows(prev):
				//vichar:alloc violation reporting on the opt-in audit path (Config.Audit), not the steady-state tick
				return fmt.Errorf("buffers: queue %d flit order broken: %v behind %v is not wormhole order", vc, f, prev)
			}
			prev = f
		}
	}
	free := 0
	for s := b.free; s != -1; s = b.next[s] {
		//vichar:alloc violation reporting inlined from mark, on the opt-in audit path (Config.Audit)
		if err := mark(s, "the free chain"); err != nil {
			return err
		}
		if b.slots[s] != nil {
			//vichar:alloc violation reporting on the opt-in audit path (Config.Audit), not the steady-state tick
			return fmt.Errorf("buffers: free slot %d still holds %v", s, b.slots[s])
		}
		free++
	}
	if queued+free != len(b.slots) {
		//vichar:alloc violation reporting on the opt-in audit path (Config.Audit), not the steady-state tick
		return fmt.Errorf("buffers: %d slots queued and %d free in a pool of %d: slots leaked", queued, free, len(b.slots))
	}
	if b.occ != queued {
		//vichar:alloc violation reporting on the opt-in audit path (Config.Audit), not the steady-state tick
		return fmt.Errorf("buffers: occupancy register reads %d but the queues hold %d", b.occ, queued)
	}
	return nil
}
