// Package audit is the dynamic companion to the vichar-lint static
// pass: a per-cycle invariant auditor over the simulator's flow
// control. The static rules keep the core deterministic; the checks
// here catch the conservation bugs determinism alone cannot —
// duplicated or lost credits, flits a link fault lost, and packets in
// another class's VCs. The input buffer's own bookkeeping (leaked or
// doubly linked slots, queue order) is checked where its private links
// live, by buffers.Queues.Audit, which the router runs beside these.
//
// The auditor is pure: it reads component state and returns an error
// describing the first violation, or nil. Callers (the network's
// Step loop, when Config.Audit is set) decide how to escalate; the
// simulator treats any violation as an unrecoverable invariant break.
package audit

import "fmt"

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
