// Package faults compiles Config.Faults into the deterministic fault
// plan the simulator injects through its cycle kernel:
// transient link faults (flit drops and corruptions recovered by a
// per-link retransmission buffer), router port stalls, and scheduled
// hard link failures.
//
// Every rate-driven decision is a pure counter-based hash of the
// fault seed and the faulted resource's identity — never a shared
// random stream — and every piece of mutable fault state (a link's
// retransmission buffer, a router's stall windows) is owned by
// exactly the kernel shard that owns the underlying resource. Fault
// placement is therefore bit-identical for any Config.Workers
// setting, which the determinism tests assert with faults enabled.
package faults

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"vichar/internal/config"
	"vichar/internal/flit"
	"vichar/internal/rng"
	"vichar/internal/topology"
)

// neverDead marks a link with no scheduled hard failure.
const neverDead = math.MaxInt64

// Domain separators keep the link-fault and port-stall hash streams
// disjoint even when they share a resource index.
const (
	domainLink  = 0x6c696e6b // "link"
	domainStall = 0x7374616c // "stal"
)

// roll returns a uniform sample in [0,1) for draw n of the given
// stream under a domain seed; a pure function, so any shard can
// evaluate it for the resources it owns without coordination.
func roll(domain, stream, n uint64) float64 {
	h := rng.Mix(domain + rng.Mix(stream+rng.Mix(n)))
	return float64(h>>11) / (1 << 53)
}

// stallWindow is one scheduled port stall.
type stallWindow struct {
	at     int64
	cycles int64
}

// Plan is the immutable compiled fault schedule of one run; the
// network builds per-link and per-router mutable state from it at
// wiring time. A nil *Plan (faults disabled) is valid for every method
// but Link.
type Plan struct {
	nodes, ports int

	dropRate    float64
	corruptRate float64
	stallRate   float64
	retxDelay   int64
	stallCycles int64
	linkSeed    uint64
	stallSeed   uint64

	killAt []int64 // [node*4+port] first dead cycle, else neverDead
	// The scheduled events, one row per resource in one array per kind:
	// row k is drops[dropOff[k]:dropOff[k+1]], the one-shot drop cycles
	// of link k = node*4+port, ascending, and
	// stalls[stallOff[k]:stallOff[k+1]] the stalls of input port
	// k = node*ports+port, ascending by start.
	drops    []int64
	dropOff  []int32
	stalls   []stallWindow
	stallOff []int32
	hasKill  bool
}

// NewPlan compiles the configuration's fault schedule, or returns nil
// when faults are disabled. The configuration must already be
// validated.
func NewPlan(cfg *config.Config) *Plan {
	f := &cfg.Faults
	if !f.Enabled() {
		return nil
	}
	p := &Plan{
		nodes:       cfg.Nodes(),
		ports:       cfg.Ports(),
		dropRate:    f.DropRate,
		corruptRate: f.CorruptRate,
		stallRate:   f.StallRate,
		retxDelay:   int64(f.EffectiveRetransmitDelay()),
		stallCycles: int64(f.EffectiveStallCycles()),
		linkSeed:    rng.Mix(uint64(f.Seed) + domainLink),
		stallSeed:   rng.Mix(uint64(f.Seed) + domainStall),
	}
	p.killAt = make([]int64, p.nodes*topology.Local)
	for i := range p.killAt {
		p.killAt[i] = neverDead
	}
	p.dropOff = make([]int32, p.nodes*topology.Local+1)
	p.stallOff = make([]int32, p.nodes*p.ports+1)
	for _, ev := range f.Events {
		switch ev.Kind {
		case config.KillLink:
			k := ev.Node*topology.Local + ev.Port
			if ev.Cycle < p.killAt[k] {
				p.killAt[k] = ev.Cycle
			}
			p.hasKill = true
		case config.DropFlit:
			p.dropOff[ev.Node*topology.Local+ev.Port+1]++
		case config.StallPort:
			p.stallOff[ev.Node*p.ports+ev.Port+1]++
		}
	}
	p.drops = make([]int64, rowStarts(p.dropOff))
	p.stalls = make([]stallWindow, rowStarts(p.stallOff))
	for _, ev := range f.Events {
		switch ev.Kind {
		case config.DropFlit:
			k := ev.Node*topology.Local + ev.Port
			p.drops[p.dropOff[k]] = ev.Cycle
			p.dropOff[k]++
		case config.StallPort:
			k := ev.Node*p.ports + ev.Port
			p.stalls[p.stallOff[k]] = stallWindow{at: ev.Cycle, cycles: int64(ev.Cycles)}
			p.stallOff[k]++
		}
	}
	rowsFilled(p.dropOff)
	rowsFilled(p.stallOff)
	for k := 0; k+1 < len(p.dropOff); k++ {
		slices.Sort(p.drops[p.dropOff[k]:p.dropOff[k+1]])
	}
	for k := 0; k+1 < len(p.stallOff); k++ {
		slices.SortStableFunc(p.stalls[p.stallOff[k]:p.stallOff[k+1]], func(a, b stallWindow) int { return cmp.Compare(a.at, b.at) })
	}
	return p
}

// rowStarts turns off, holding row k's length at off[k+1], into row
// k's start at off[k], and returns the total length.
func rowStarts(off []int32) int {
	for k := 1; k < len(off); k++ {
		off[k] += off[k-1]
	}
	return int(off[len(off)-1])
}

// rowsFilled restores the row starts after a fill that advanced each
// row's off[k] to its end, the next row's start.
func rowsFilled(off []int32) {
	copy(off[1:len(off)-1], off[:len(off)-2])
	off[0] = 0
}

// HasHardFaults reports whether any link is scheduled to die (and the
// routers therefore need the fault-aware escape tree).
func (p *Plan) HasHardFaults() bool { return p != nil && p.hasKill }

// LinkEverDead reports whether the directed link leaving node through
// the cardinal port dies at any point in the schedule; the escape
// tree excludes such links for the whole run (planned-outage model).
func (p *Plan) LinkEverDead(node, port int) bool {
	if p == nil {
		return false
	}
	return p.killAt[node*topology.Local+port] != neverDead
}

// Outcome is the fate of one link delivery attempt.
type Outcome uint8

const (
	// Deliver lands the flit downstream.
	Deliver Outcome = iota
	// Drop loses the flit on the wire; the sender-side retransmission
	// buffer recovers it after the retransmit delay.
	Drop
	// Corrupt delivers a flit that fails its CRC at the receiver;
	// recovered exactly like a drop, tallied separately.
	Corrupt
)

// LinkState is the mutable fault state of one directed inter-router
// link: its delivery-attempt counter, scheduled one-shot drops, and
// the single-flit retransmission buffer. It is written only by the
// link's tick, which the kernel runs in the receiving router's shard.
type LinkState struct {
	plan    *Plan
	stream  uint64
	attempt uint64

	drops   []int64
	dropIdx int

	holding *flit.Flit
	readyAt int64

	// Drops, Corrupts and Retransmits count this link's fault
	// activity; the network folds them into the run's Counters.
	// Retransmits counts re-send attempts — a retry may itself fault
	// and be retried, so every fault is answered by exactly one
	// retransmission attempt. Declared-fault conservation
	// (audit.CheckLinkFaults): Drops + Corrupts == Retransmits + Held.
	Drops       uint64
	Corrupts    uint64
	Retransmits uint64
}

// Link returns the fault state for the directed link leaving node
// through the cardinal port, which the network keeps in a slab; p must
// not be nil.
func (p *Plan) Link(node, port int) LinkState {
	k := node*topology.Local + port
	return LinkState{
		plan:   p,
		stream: uint64(k),
		drops:  p.drops[p.dropOff[k]:p.dropOff[k+1]],
	}
}

// Attempt rolls the fate of one delivery attempt at cycle now,
// consuming scheduled one-shot drops first. It tallies the fault
// counters; the caller moves the flit accordingly (Hold on a fresh
// fault, Rearm on a failed retransmission).
func (s *LinkState) Attempt(now int64) Outcome {
	s.attempt++
	if s.dropIdx < len(s.drops) && s.drops[s.dropIdx] <= now {
		s.dropIdx++
		s.Drops++
		return Drop
	}
	r := roll(s.plan.linkSeed, s.stream, s.attempt)
	if r < s.plan.dropRate {
		s.Drops++
		return Drop
	}
	if r < s.plan.dropRate+s.plan.corruptRate {
		s.Corrupts++
		return Corrupt
	}
	return Deliver
}

// Hold parks a faulted flit in the retransmission buffer; it blocks
// the link until released, preserving wormhole flit order.
func (s *LinkState) Hold(f *flit.Flit, now int64) {
	if s.holding != nil {
		//vichar:invariant the retransmission buffer holds one flit; the link must not attempt deliveries past a held flit
		panic(fmt.Sprintf("faults: link stream %d already holds a flit", s.stream))
	}
	s.holding = f
	s.readyAt = now + s.plan.retxDelay
}

// Rearm re-delays the held flit after a faulted retransmission,
// counting the failed re-send attempt.
func (s *LinkState) Rearm(now int64) {
	s.readyAt = now + s.plan.retxDelay
	s.Retransmits++
}

// HeldDue reports whether a held flit's retransmission is due.
func (s *LinkState) HeldDue(now int64) bool {
	return s.holding != nil && now >= s.readyAt
}

// Blocked reports whether the link is waiting on a retransmission.
func (s *LinkState) Blocked() bool { return s.holding != nil }

// Release hands back the held flit for delivery, counting the
// successful retransmission attempt.
func (s *LinkState) Release() *flit.Flit {
	f := s.holding
	s.holding = nil
	s.Retransmits++
	return f
}

// HeldFlit returns the flit parked in the retransmission buffer, or
// nil. Safe on nil.
func (s *LinkState) HeldFlit() *flit.Flit {
	if s == nil {
		return nil
	}
	return s.holding
}

// Held returns the number of flits parked in the retransmission
// buffer (0 or 1) — the declared-fault term of the link's credit
// conservation equation. Safe on nil.
func (s *LinkState) Held() int {
	if s == nil || s.holding == nil {
		return 0
	}
	return 1
}

// RouterState is the mutable fault state of one router: per-output
// hard-failure cycles and per-input stall windows. Owned by the
// router's compute shard; BeginCycle must run before the pipeline
// stages read Stalled/LinkDead.
type RouterState struct {
	plan *Plan
	node int
	now  int64

	deadAt     []int64 // per cardinal output port
	stallUntil []int64 // per input port, exclusive end cycle
	winIdx     []int   // per input port, the next of its stalls to apply
	stallOff   []int32 // the plan's stall-row bounds of the router's input ports
	stalled    []bool
}

// Routers builds the fault state of every router, indexed by node,
// with the per-port rows of all of them carved from one array per
// field; nil on a nil plan.
func (p *Plan) Routers() []RouterState {
	if p == nil {
		return nil
	}
	rs := make([]RouterState, p.nodes)
	stallUntil := make([]int64, p.nodes*p.ports)
	winIdx := make([]int, p.nodes*p.ports)
	stalled := make([]bool, p.nodes*p.ports)
	for node := range rs {
		lo, hi := node*p.ports, (node+1)*p.ports
		rs[node] = RouterState{
			plan:       p,
			node:       node,
			deadAt:     p.killAt[node*topology.Local : (node+1)*topology.Local],
			stallUntil: stallUntil[lo:hi:hi],
			winIdx:     winIdx[lo:hi:hi],
			stallOff:   p.stallOff[lo : hi+1],
			stalled:    stalled[lo:hi:hi],
		}
	}
	return rs
}

// BeginCycle applies due scheduled stalls, rolls rate-driven stall
// starts on healthy ports, and latches the cycle's per-port frozen
// flags. Decisions hash (seed, node·port, cycle), so they are
// identical whichever shard evaluates them.
func (s *RouterState) BeginCycle(now int64) {
	s.now = now
	for port := range s.stalled {
		windows := s.plan.stalls[s.stallOff[port]:s.stallOff[port+1]]
		for s.winIdx[port] < len(windows) && windows[s.winIdx[port]].at <= now {
			w := windows[s.winIdx[port]]
			s.winIdx[port]++
			if end := w.at + w.cycles; end > s.stallUntil[port] {
				s.stallUntil[port] = end
			}
		}
		if s.plan.stallRate > 0 && s.stallUntil[port] <= now {
			stream := uint64(s.node*s.plan.ports + port)
			if roll(s.plan.stallSeed, stream, uint64(now)) < s.plan.stallRate {
				s.stallUntil[port] = now + s.plan.stallCycles
			}
		}
		s.stalled[port] = now < s.stallUntil[port]
	}
}

// Stalled reports whether input port's control logic is frozen this
// cycle (flits still land in its buffer; RC/VA/SA skip it).
func (s *RouterState) Stalled(port int) bool { return s.stalled[port] }

// LinkDead reports whether the output link through port is dead at
// the cycle latched by BeginCycle. The VC allocator stops selecting
// dead ports; worms granted before the failure drain normally.
func (s *RouterState) LinkDead(port int) bool {
	return port < len(s.deadAt) && s.now >= s.deadAt[port]
}
