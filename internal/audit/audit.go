// Package audit is the dynamic companion to the vichar-lint static
// pass: a per-cycle invariant auditor over the simulator's flow
// control and unified-buffer bookkeeping. The static rules keep the
// core deterministic; the checks here catch the conservation bugs
// determinism alone cannot — leaked buffer slots, duplicated or lost
// credits, and VC Control Table rows that diverge from the Slot
// Availability Tracker.
//
// The auditor is pure: it reads component state and returns an error
// describing the first violation, or nil. Callers (the network's
// Step loop, when Config.Audit is set) decide how to escalate; the
// simulator treats any violation as an unrecoverable invariant break.
package audit

import (
	"fmt"

	"vichar/internal/core"
	"vichar/internal/flit"
)

// CheckUBS cross-checks one Unified Buffer Structure's three
// bookkeeping views — the slot array, the Slot Availability Tracker
// and the VC Control Table — and verifies the one-packet-per-VC
// discipline the Token Dispenser is supposed to enforce:
//
//   - every slot ID a table row names is in range, marked occupied by
//     the tracker, holds a flit, and is named by exactly one row;
//   - every slot the tracker marks occupied is named by some row (no
//     slot leaks) and every free slot holds no flit;
//   - within a row, all flits belong to one packet, carry the row's
//     VC ID, and sit in consecutive sequence order.
func CheckUBS(b *core.UBS) error {
	const unowned = -1
	owner := make([]int, b.Slots())
	for i := range owner {
		owner[i] = unowned
	}
	for vc := 0; vc < b.MaxVCs(); vc++ {
		row := b.SlotsOf(vc)
		if len(row) != b.Len(vc) {
			return fmt.Errorf("audit: vc %d row length %d but Len reports %d", vc, len(row), b.Len(vc))
		}
		var pkt *flit.Packet
		var seq0 int
		for i, s := range row {
			if s < 0 || s >= b.Slots() {
				return fmt.Errorf("audit: vc %d names slot %d outside pool of %d", vc, s, b.Slots())
			}
			if owner[s] != unowned {
				return fmt.Errorf("audit: slot %d named by both vc %d and vc %d", s, owner[s], vc)
			}
			owner[s] = vc
			if b.SlotFree(s) {
				return fmt.Errorf("audit: vc %d names slot %d but the tracker marks it free", vc, s)
			}
			f := b.FlitAt(s)
			if f == nil {
				return fmt.Errorf("audit: vc %d names slot %d but the slot is empty", vc, s)
			}
			if f.VC != vc {
				return fmt.Errorf("audit: slot %d flit carries vc %d but sits in row %d", s, f.VC, vc)
			}
			if i == 0 {
				pkt, seq0 = f.Pkt, f.Seq
				continue
			}
			if f.Pkt != pkt {
				return fmt.Errorf("audit: vc %d holds flits of two packets (%d and %d): one-packet-per-VC violated", vc, pkt.ID, f.Pkt.ID)
			}
			if f.Seq != seq0+i {
				return fmt.Errorf("audit: vc %d packet %d flit order broken: slot %d holds seq %d, want %d", vc, pkt.ID, s, f.Seq, seq0+i)
			}
		}
	}
	occupied := 0
	for i := 0; i < b.Slots(); i++ {
		free := b.SlotFree(i)
		if !free {
			occupied++
		}
		switch {
		case !free && owner[i] == unowned:
			return fmt.Errorf("audit: slot %d leaked: tracker marks it occupied but no VC row names it", i)
		case free && b.FlitAt(i) != nil:
			return fmt.Errorf("audit: slot %d marked free but still holds a flit", i)
		}
	}
	if occupied != b.Occupied() {
		return fmt.Errorf("audit: tracker shows %d occupied slots but Occupied reports %d", occupied, b.Occupied())
	}
	return nil
}

// LinkState is the conservation snapshot of one directed link taken
// between simulation steps: the upstream credit view's debit must
// equal the flits in flight on the forward channel, plus the flits
// resident in the downstream input buffer, plus the credits in flight
// on the reverse channel. Any imbalance means a credit was dropped,
// duplicated, or a buffer slot was charged to the wrong link.
type LinkState struct {
	// Name identifies the link in violation reports (e.g. "3->4").
	Name string
	// Outstanding is the upstream view's debit: flits sent minus
	// credits received (CreditView.OutstandingFlits).
	Outstanding int
	// InFlightFlits counts flits on the forward channel.
	InFlightFlits int
	// DownstreamOccupied counts flits resident in the downstream
	// input buffer the link feeds.
	DownstreamOccupied int
	// InFlightCredits counts credits on the reverse channel.
	InFlightCredits int
	// RetxHeld counts flits parked in the link's retransmission
	// buffer (0 or 1): the declared-fault term that lets the auditor
	// distinguish a flit a fault is holding from a flit the simulator
	// leaked. Always 0 without Config.Faults.
	RetxHeld int
}

// CheckLink verifies the credit-conservation equation for one link.
func CheckLink(s LinkState) error {
	if got := s.InFlightFlits + s.DownstreamOccupied + s.InFlightCredits + s.RetxHeld; got != s.Outstanding {
		return fmt.Errorf("audit: link %s credit conservation broken: view outstanding %d, accounted %d (%d in flight + %d buffered + %d credits + %d held for retransmit)",
			s.Name, s.Outstanding, got, s.InFlightFlits, s.DownstreamOccupied, s.InFlightCredits, s.RetxHeld)
	}
	return nil
}

// CheckLinkFaults verifies declared-fault conservation on one link:
// every dropped or corrupted flit must either have been retransmitted
// or still sit in the retransmission buffer. An imbalance means the
// fault layer lost a flit instead of recovering it.
func CheckLinkFaults(name string, drops, corrupts, retransmits uint64, held int) error {
	if drops+corrupts != retransmits+uint64(held) {
		return fmt.Errorf("audit: link %s fault accounting broken: %d drops + %d corrupts != %d retransmits + %d held",
			name, drops, corrupts, retransmits, held)
	}
	return nil
}

// CheckLinks verifies a batch of link snapshots in order and returns
// the first violation, or nil. The cycle kernel shards the audit
// across its lanes: each shard snapshots and checks a contiguous
// chunk of links with this function, and the kernel merges the
// per-shard results in shard index order — so the violation reported
// is the same one a serial scan of all links would find first. Like
// the rest of the package the function is pure; it is safe to call
// concurrently on disjoint snapshot slices.
func CheckLinks(states []LinkState) error {
	for _, s := range states {
		if err := CheckLink(s); err != nil {
			return err
		}
	}
	return nil
}

// CheckVCClass verifies the transaction layer's VC-class separation
// contract at one virtual channel: a packet may only occupy a VC
// whose ID falls inside the packet's own class chunk (where names the
// side being checked, "input" or "output"). A mismatch means a
// response packet could queue behind — or be blocked by — request
// traffic, which would void the protocol-deadlock-freedom argument.
func CheckVCClass(where string, router, port, vc, vcClass, pktClass int) error {
	if vcClass == pktClass {
		return nil
	}
	return fmt.Errorf("audit: router %d %s port %d: vc %d belongs to class %d but carries a class-%d packet",
		router, where, port, vc, vcClass, pktClass)
}
