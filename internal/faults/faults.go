// Package faults compiles Config.Faults into the deterministic fault
// plan the simulator injects through its two-phase cycle kernel:
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
	"fmt"
	"math"
	"sort"

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
// wiring time. A nil *Plan (faults disabled) is valid for every
// constructor and returns nil state.
type Plan struct {
	nodes, ports int

	dropRate    float64
	corruptRate float64
	stallRate   float64
	retxDelay   int64
	stallCycles int64
	linkSeed    uint64
	stallSeed   uint64

	killAt  []int64         // [node*4+port] first dead cycle, else neverDead
	dropAt  [][]int64       // [node*4+port] scheduled one-shot drop cycles, ascending
	stallAt [][]stallWindow // [node*ports+port] scheduled stalls, ascending
	hasKill bool
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
	p.dropAt = make([][]int64, p.nodes*topology.Local)
	p.stallAt = make([][]stallWindow, p.nodes*p.ports)
	for _, ev := range f.Events {
		switch ev.Kind {
		case config.KillLink:
			k := ev.Node*topology.Local + ev.Port
			if ev.Cycle < p.killAt[k] {
				p.killAt[k] = ev.Cycle
			}
			p.hasKill = true
		case config.DropFlit:
			k := ev.Node*topology.Local + ev.Port
			p.dropAt[k] = append(p.dropAt[k], ev.Cycle)
		case config.StallPort:
			k := ev.Node*p.ports + ev.Port
			p.stallAt[k] = append(p.stallAt[k], stallWindow{at: ev.Cycle, cycles: int64(ev.Cycles)})
		}
	}
	for _, cycles := range p.dropAt {
		sort.Slice(cycles, func(i, j int) bool { return cycles[i] < cycles[j] })
	}
	for _, ws := range p.stallAt {
		sort.SliceStable(ws, func(i, j int) bool { return ws[i].at < ws[j].at })
	}
	return p
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

// Link builds the fault state for the directed link leaving node
// through the cardinal port; nil on a nil plan.
func (p *Plan) Link(node, port int) *LinkState {
	if p == nil {
		return nil
	}
	return &LinkState{
		plan:   p,
		stream: uint64(node*topology.Local + port),
		drops:  p.dropAt[node*topology.Local+port],
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
	winIdx     []int
	windows    [][]stallWindow
	stalled    []bool
}

// Router builds the fault state for one router; nil on a nil plan.
func (p *Plan) Router(node int) *RouterState {
	if p == nil {
		return nil
	}
	s := &RouterState{
		plan:       p,
		node:       node,
		deadAt:     p.killAt[node*topology.Local : (node+1)*topology.Local],
		stallUntil: make([]int64, p.ports),
		winIdx:     make([]int, p.ports),
		windows:    p.stallAt[node*p.ports : (node+1)*p.ports],
		stalled:    make([]bool, p.ports),
	}
	return s
}

// BeginCycle applies due scheduled stalls, rolls rate-driven stall
// starts on healthy ports, and latches the cycle's per-port frozen
// flags. Decisions hash (seed, node·port, cycle), so they are
// identical whichever shard evaluates them.
func (s *RouterState) BeginCycle(now int64) {
	s.now = now
	for port := range s.stalled {
		for s.winIdx[port] < len(s.windows[port]) && s.windows[port][s.winIdx[port]].at <= now {
			w := s.windows[port][s.winIdx[port]]
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
