package faults

import "vichar/internal/snap"

// This file is the checkpoint walk of the fault subsystem. The Plan
// is immutable and re-derives from the configuration, so only the
// per-link retransmission state and the per-router stall deadlines
// travel. RouterState's now/stalled scratch and its window cursors are
// recomputed by the first BeginCycle after restore.

// State walks the link's delivery-attempt counter, scheduled drop
// cursor, retransmission buffer and fault tallies; vcs is the VC count
// of the port the link feeds. Safe on nil (a presence marker only),
// matching nil-plan wiring.
func (s *LinkState) State(c *snap.Codec, vcs int) {
	c.Section("linkfaults")
	if !c.Present(s != nil, "faults: link state") {
		return
	}
	c.U64(&s.attempt)
	c.Int(&s.dropIdx)
	c.Range(s.dropIdx, 0, len(s.drops), "faults: scheduled-drop cursor")
	c.Flit(&s.holding)
	if s.holding != nil {
		c.Range(s.holding.VC, 0, vcs-1, "faults: VC of the flit held for retransmission")
	}
	c.I64(&s.readyAt)
	c.U64(&s.Drops)
	c.U64(&s.Corrupts)
	c.U64(&s.Retransmits)
}

// State walks the router's per-port stall deadlines. Safe on nil. The
// scheduled-window cursors are not walked: a load leaves them at the
// start, and the first BeginCycle re-walks the windows already due,
// whose ends the deadlines, which only ever grow, already cover.
func (s *RouterState) State(c *snap.Codec) {
	c.Section("routerfaults")
	if !c.Present(s != nil, "faults: router state") {
		return
	}
	c.I64s(s.stallUntil)
}
