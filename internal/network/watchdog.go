package network

import (
	"fmt"

	"vichar/internal/config"
)

// This file is the forward-progress watchdog (DESIGN.md §10): the one
// wedge detector. A network with packets in flight that ejects no flit
// for a window of W cycles has stopped making progress — a deadlock, a
// livelock, or a fault that froze it — and a run loop that kept
// stepping would spin silently to its cycle cap.

// wedgeFloor is the window of a configuration whose every hop is a
// plain pipelined one: over 20 times the longest ejection gap measured
// in a live network across the tier-1 configurations, the digest wall
// and the benchmark workloads (25 cycles; DESIGN.md §10.9).
const wedgeFloor = 512

// hopCycles bounds one zero-load hop: a four-stage router pipeline and
// the two-cycle link.
const hopCycles = 8

// WedgeError reports a run that stopped making forward progress:
// packets in flight, and no flit ejected for Window cycles. It names
// the router holding the most flits, with its pipeline state.
type WedgeError struct {
	// Cycle is the cycle the watchdog fired.
	Cycle int64
	// LastEject is the cycle of the last flit ejection, or a later one
	// where the window restarted (see CheckProgress).
	LastEject int64
	// InFlight is the number of packets created and not yet ejected.
	InFlight int64
	// Window is the watchdog window W derived from the configuration.
	Window int64
	// Router is the router holding the most flits (the lowest id on a
	// tie), Flits how many it holds and State its DebugState.
	Router int
	Flits  int
	State  string
}

func (e *WedgeError) Error() string {
	return fmt.Sprintf("network: wedged at cycle %d: %d packets in flight, no flit ejected since cycle %d (window %d cycles); router %d holds %d flits:\n%s",
		e.Cycle, e.InFlight, e.LastEject, e.Window, e.Router, e.Flits, e.State)
}

// watchdog is the forward-progress mark: the ejected-flit count last
// seen, the cycle the window started and the cycle of the last check.
// It is not checkpointed: a restored network's first check does not
// follow its last, so the window restarts.
type watchdog struct {
	window int64
	flits  uint64
	last   int64
	seen   int64
}

// wedgeWindow derives the watchdog window W from the configuration:
// wedgeFloor, plus a head's trip across the network, plus the longest
// wait a configured mechanism can impose on every packet at once — the
// escape re-channelling threshold, a memory controller's full service
// queue, a port stall or scheduled freeze. A hop costs the pipeline and
// link, DAMQ's bookkeeping delay on the write and the read, and one
// retransmission hold under a fault plan. Inputs are clamped so the
// sum cannot overflow; a window past the cycle cap only means the cap
// ends the run first.
func wedgeWindow(cfg *config.Config) int64 {
	clamp := func(v int) int64 { return min(max(int64(v), 0), 1<<24) }
	hops := clamp(cfg.Width + cfg.Height)
	if cfg.Faults.HasHardFaults() {
		// Escape paths follow an up*/down* tree, which may visit every node.
		hops = clamp(cfg.Nodes())
	}
	perHop := int64(hopCycles)
	if cfg.Arch == config.DAMQ {
		perHop += 2 * clamp(cfg.DAMQDelay)
	}
	w := int64(wedgeFloor)
	if cfg.NeedsEscape() {
		w += clamp(cfg.DeadlockThreshold)
	}
	if cfg.Txn.Enabled {
		w += clamp(cfg.Txn.EffectiveServiceCycles()) * clamp(cfg.Txn.EffectiveQueueDepth())
	}
	if f := &cfg.Faults; f.Enabled() {
		perHop += clamp(f.EffectiveRetransmitDelay())
		stall := 0
		if f.StallRate > 0 {
			stall = f.EffectiveStallCycles()
		}
		for _, ev := range f.Events {
			if ev.Kind == config.StallPort {
				stall = max(stall, ev.Cycles)
			}
		}
		w += clamp(stall)
	}
	return w + hops*perHop
}

// CheckProgress returns the watchdog's verdict at the current cycle:
// nil while the network makes progress, a *WedgeError once packets in
// flight have ejected no flit for the window. RunWith and Drain call
// it after every Step; a caller that steps by hand calls it after each
// of its own. The window watches consecutive cycles only: it restarts
// at a check that sees an ejection or an empty network, and at one
// that does not follow the previous check by a single Step. Checked
// again without a Step in between, the verdict repeats.
func (n *Network) CheckProgress() error {
	w := &n.wd
	if n.now > w.seen+1 || n.ejectedFlits != w.flits || n.created == n.collector.Ejected() {
		w.flits, w.last = n.ejectedFlits, n.now
	}
	w.seen = n.now
	if n.now-w.last <= w.window {
		return nil
	}
	e := &WedgeError{
		Cycle:     n.now,
		LastEject: w.last,
		InFlight:  n.created - n.collector.Ejected(),
		Window:    w.window,
	}
	for id, r := range n.routers {
		if occ := r.Occupied(); occ > e.Flits {
			e.Router, e.Flits = id, occ
		}
	}
	e.State = n.routers[e.Router].DebugState()
	return e
}
