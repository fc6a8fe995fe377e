// Package router implements the 4-stage pipelined virtual-channel
// router of the paper's evaluation platform: Routing Computation
// (RC), Virtual-channel Allocation (VA), Switch Allocation (SA) and
// crossbar traversal (ST), followed by a one-cycle link. Flow control
// is credit-based wormhole.
//
// The input buffer organization is pluggable (buffers.Buffer), which
// is how the same router hosts the generic, ViChaR, DAMQ and FC-CB
// schemes; the VA structure switches between the generic two-stage
// allocator of paper Figure 7(a) and ViChaR's input-port arbitration
// plus Token Dispenser of Figure 7(b).
package router

import (
	"fmt"
	"math/bits"

	"vichar/internal/arbiter"
	"vichar/internal/audit"
	"vichar/internal/buffers"
	"vichar/internal/config"
	"vichar/internal/core"
	"vichar/internal/faults"
	"vichar/internal/flit"
	"vichar/internal/metrics"
	"vichar/internal/routing"
	"vichar/internal/stats"
	"vichar/internal/topology"
)

// Pipeline latencies: a flit granted the switch at cycle t traverses
// the crossbar at t+1 and the link at t+2 (arriving downstream at
// t+2); a credit sent at t is visible upstream at t+1.
const (
	// FlitDelay is switch traversal plus link traversal in cycles.
	FlitDelay = 2
	// CreditDelay is the credit return latency in cycles.
	CreditDelay = 1
)

// FlitSender carries flits downstream; implemented by network links.
type FlitSender interface {
	SendFlit(f *flit.Flit, now int64)
}

// CreditSender carries credits upstream; implemented by network
// links.
type CreditSender interface {
	SendCredit(c flit.Credit, now int64)
}

// vcState is the packet an input VC is routing and what RC and VA
// know of it: the routing decision (the route tables' one packed byte)
// and the cycle it started waiting for a VC. Its place in the
// allocation state machine lives in the port's scan masks, and its
// granted route in outInfo.
type vcState struct {
	pkt       *flit.Packet
	waitSince int64
	cands     routing.Candidates
}

type inputPort struct {
	buf buffers.Buffer
	// readyAt is buf.ReadyAt(), fetched once at construction: the SA
	// scan compares it for each active VC instead of calling into the
	// buffer.
	readyAt []int64
	vc      []vcState
	credit  CreditSender

	// outInfo[v] is an active VC's granted route, the only record of
	// it: outPort<<outInfoShift | outVC, written by grant, zero once
	// the tail leaves. The SA scan polls every active VC every cycle
	// and needs only this word, kept off the wider vcState records.
	outInfo []uint32
}

// outInfoShift packs (outPort, outVC) into one outInfo word: VC ids
// stay below 1<<15 (config.MaxBufferSlots, enforced by Validate).
const outInfoShift = 16

// packRoute is the outInfo word of a VC granted (op, ovc).
func packRoute(op, ovc int) uint32 { return uint32(op)<<outInfoShift | uint32(ovc) }

// route unpacks input VC v's granted (output port, output VC).
func (in *inputPort) route(v int) (op, ovc int) {
	return int(in.outInfo[v] >> outInfoShift), int(in.outInfo[v] & (1<<outInfoShift - 1))
}

// The kinds of per-VC scan mask, one bit per VC id (DESIGN.md §10).
// The tick stages iterate set bits instead of scanning every VC, and
// the network's active-router worklist derives quiescence from them.
// bufMask bit v is set iff buf.Len(v) > 0 (cross-checked by
// AuditInvariants). vaMask and actMask are the VC allocation state
// machine itself: a VC waiting for VA has its vaMask bit set, one
// holding a granted route its actMask bit, an idle VC neither — never
// both. vc[v].pkt is set exactly while one of them is.
const (
	bufMask = iota
	vaMask
	actMask
	maskKinds
)

// has reports whether bit v of a per-VC mask is set.
func has(mask []uint64, v int) bool { return mask[v>>6]&(1<<(uint(v)&63)) != 0 }

// zero reports whether every word of a mask is clear.
func zero(mask []uint64) bool {
	for _, w := range mask {
		if w != 0 {
			return false
		}
	}
	return true
}

type outputPort struct {
	view CreditView
	// vichar is view's concrete type when it is a ViChaR dispenser
	// view, nil otherwise (including the ejection sink). canSend is its
	// only reader.
	vichar *vicharView
	conn   FlitSender
}

// canSend is the SA stage's credit poll. It is the one call into a
// credit view made per active VC per cycle, and the only devirtualized
// one: without the dispenser view's direct (inlinable) call the
// sat8x8_vic benchmark workload lost 7 of 8 interleaved A/B pairs
// (median -3.6% router-cycles/s). Every other view call runs at most
// once per flit, grant or (port, kind) per tick and goes through the
// interface.
func (o *outputPort) canSend(vc int) bool {
	if o.vichar != nil {
		return o.vichar.CanSendFlit(vc)
	}
	return o.view.CanSendFlit(vc)
}

// Router is one 5-port pipelined NoC router.
type Router struct {
	id   int
	cfg  *config.Config
	mesh topology.Mesh
	// tables memoizes the routing function and the escape network over
	// every (cur, dst) pair (DESIGN.md §10): RC is a flat array load,
	// with no interface dispatch left on the steady-state tick. Shared
	// across the network's routers when an arena is supplied.
	tables *routing.Tables

	in  []inputPort
	out []outputPort

	// masks is the router's one scan-mask block, laid out
	// [kind][port][word] (kind is bufMask, vaMask or actMask) and the
	// only store of those bits: a stage reads its kind's rows as one
	// contiguous run and skips a port whose row is zero without
	// touching the port's descriptor, and Quiescent is one pass over
	// the whole block.
	masks []uint64

	maxVCs int
	ports  int
	maskW  int // uint64 words per per-VC mask

	// Arbiter banks are contiguous value slices (struct-of-arrays): a
	// tick touches all of them, so their priority pointers share cache
	// lines instead of hiding behind per-arbiter heap pointers.
	vaS1  []arbiter.RoundRobin // per input port, over its VCs
	vaS2  []arbiter.RoundRobin // ViChaR: per output port, over input ports
	vaS2G []arbiter.RoundRobin // generic: per (output port, output VC) flat, over input port x VC
	saS1  []arbiter.RoundRobin // per input port, over its VCs
	saS2  []arbiter.RoundRobin // per output port, over input ports

	// act counts every pipeline event since construction, once, at the
	// site that produces it; stats.Counters (Counters) and the /metrics
	// router series are both views over it. Shard-owned like the rest
	// of the router, read only in the kernel's serial phase.
	act Activity

	// rec stages flit-lifecycle events for the tracer; nil unless
	// Config.TraceEvents is set, and every site tests it before it
	// builds an event, so an untraced hop reads no packet record.
	rec *metrics.Recorder

	// faults is the router's fault-model state (port stalls, dead
	// output links); nil without Config.Faults. escapeTree replaces
	// the XY escape network when the fault schedule kills links: an
	// up*/down* tree over the surviving links that preserves Duato
	// deadlock freedom.
	faults     *faults.RouterState
	escapeTree *routing.EscapeTree

	// scratch state reused across ticks to avoid per-cycle allocation;
	// saNominee and vaNoms are read only at the ports a stage's nominee
	// bitmask names, so they are never reset
	saNominee []int       // per input port: winning VC
	reqWords  []uint64    // request-mask scratch, ports*maxVCs bits wide
	opReq     []uint64    // per output port: input-port request bits (stage 2)
	vaNoms    []vaNominee // ViChaR VA: per input port nominee
	vaFlats   []int       // generic VA stage 1: flat input-VC ids that nominated this cycle, ascending
	vaKeys    []int       // contested output VCs (op*maxVCs+ovc), in first-nomination order
	// Generic VA stage 2 groups the nominations by output VC as linked
	// chains over fixed arrays: vaPick[flat] is the output VC flat
	// nominated, vaHead/vaTail[key] the first and last requester of an
	// output VC (vaHead is -1 outside stage 2) and vaNext[flat] the
	// following requester of the same output VC, -1 at the end.
	vaPick, vaHead, vaTail, vaNext []int32

	// VA candidate-masking bitmasks (DESIGN.md §10), filled lazily
	// within each VA tick: for every (class, escape) kind,
	// vaKnown[kind] holds one bit per output port already polled this
	// tick and vaFree[kind] the subset that can grant a VC of that
	// kind (unconnected and dead-link ports stay clear); vaSlotsKnown/
	// vaSlots memoize FreeSlots the same way. VA stage 1 performs no
	// credit-view mutations — grants happen only in stage 2 — so each
	// (port, kind) is polled at most once per cycle no matter how many
	// waiting VCs nominate it, and every repeat lookup (the stage-1
	// winner's re-score included) is a pure bit test. Decisions are
	// bit-exactly those of per-VC polling.
	vaKnown      []uint64 // per kind: ports polled this tick
	vaFree       []uint64 // per kind: ports that can grant
	vaSlots      []int    // per output port: FreeSlots memo
	vaSlotsKnown uint64   // ports with a valid vaSlots entry this tick
}

// Activity is a router's event record. A buffer read is one crossbar
// traversal and one switch-allocator grant, so those are derived from
// BufReads, not counted.
type Activity struct {
	BufWrites  []uint64 // per input port: flits written into the buffer
	BufReads   []uint64 // per input port: flits read out (SA grants)
	PortStalls []uint64 // per input port: cycles frozen by a fault-model stall

	// CreditStalls counts, per output port, cycles an active VC held a
	// ready flit but lacked downstream credit.
	CreditStalls []uint64

	RC        uint64 // head flits routed
	VAOps     uint64 // VC allocator invocations
	VAGrants  uint64 // output VCs granted
	VADenials uint64 // VC requests that competed and lost
	SAOps     uint64 // switch allocator invocations
	SADenials uint64 // switch requests that competed and lost
	Reroutes  uint64 // packets re-channelled onto the escape network
}

// Activity exposes the router's event record. Serial phase only.
func (r *Router) Activity() *Activity { return &r.act }

// Counters derives the power model's activity totals from the event
// record.
func (r *Router) Counters() stats.Counters {
	a := &r.act
	var c stats.Counters
	for p := 0; p < r.ports; p++ {
		c.BufferWrites += a.BufWrites[p]
		c.BufferReads += a.BufReads[p]
		c.StallCycles += a.PortStalls[p]
	}
	c.XbarTraversals = c.BufferReads
	c.VAOps = a.VAOps
	c.SAOps = a.SAOps
	c.VCGrants = a.VAGrants
	c.EscapeReroutes = a.Reroutes
	return c
}

// vaNominee is the per-input-port nomination of the ViChaR VA stage:
// the winning input VC, its chosen output port and whether the packet
// is on the escape network.
type vaNominee struct {
	invc   int
	port   int
	escape bool
}

// routeFor returns the routing function implementation for the
// configuration.
func routeFor(cfg *config.Config) routing.Function {
	if cfg.Routing == config.MinimalAdaptive {
		return routing.MinimalAdaptive{}
	}
	return routing.XY{}
}

// newBuffer builds the input-port buffer for the configuration,
// drawing the UBS's arrays from the arena when one is supplied.
func newBuffer(cfg *config.Config, a *Arena) buffers.Buffer {
	switch cfg.Arch {
	case config.Generic:
		return buffers.NewGeneric(cfg.VCs, cfg.VCDepth)
	case config.ViChaR:
		return core.NewUBSIn(a.Soa(), cfg.BufferSlots, cfg.MaxVCs())
	case config.DAMQ:
		return buffers.NewDAMQ(cfg.VCs, cfg.BufferSlots, cfg.DAMQDelay)
	case config.FCCB:
		return buffers.NewFCCB(cfg.VCs, cfg.BufferSlots)
	default:
		panic(fmt.Sprintf("router: unknown buffer architecture %v", cfg.Arch))
	}
}

// New constructs router id on the mesh. Ports must be wired with
// ConnectOutput/ConnectInputCredit before the first tick.
func New(id int, cfg *config.Config, mesh topology.Mesh) *Router {
	return NewIn(nil, id, cfg, mesh)
}

// NewIn is New drawing the router's hot state — buffers, VC state
// machines, scan masks, arbiter banks — from the network arena, so
// adjacent routers' tick-path state packs contiguously (DESIGN.md
// §10). A nil arena allocates normally.
func NewIn(a *Arena, id int, cfg *config.Config, mesh topology.Mesh) *Router {
	p := cfg.Ports()
	r := &Router{
		id:     id,
		cfg:    cfg,
		mesh:   mesh,
		tables: a.Tables(),
		maxVCs: cfg.MaxVCs(),
		ports:  p,
		maskW:  maskWords(cfg.MaxVCs()),

		in:  make([]inputPort, p),
		out: make([]outputPort, p),

		saNominee: make([]int, p),
	}
	if r.tables == nil {
		// Standalone construction (unit tests, nil arena): build the
		// router's own copy of the memoization tables.
		r.tables = routing.NewTables(routeFor(cfg), mesh)
	}
	soa := a.Soa()
	r.masks = soa.TakeWords(maskKinds * p * r.maskW)
	for i := 0; i < p; i++ {
		in := &r.in[i]
		in.buf = newBuffer(cfg, a)
		in.readyAt = in.buf.ReadyAt()
		in.vc = a.takeVCs(r.maxVCs)
		in.outInfo = a.takeRoutes(r.maxVCs)
	}
	r.act.BufWrites = soa.TakeWords(p)
	r.act.BufReads = soa.TakeWords(p)
	r.act.PortStalls = soa.TakeWords(p)
	r.act.CreditStalls = soa.TakeWords(p)
	r.vaS1 = a.takeBank(p, r.maxVCs)
	r.saS1 = a.takeBank(p, r.maxVCs)
	r.vaS2 = a.takeBank(p, p)
	r.saS2 = a.takeBank(p, p)
	if cfg.Arch != config.ViChaR {
		r.vaS2G = a.takeBank(p*r.maxVCs, p*r.maxVCs)
	}
	r.reqWords = make([]uint64, maskWords(p*r.maxVCs))
	r.opReq = make([]uint64, p)
	r.vaNoms = make([]vaNominee, p)
	r.vaKnown = make([]uint64, cfg.VCClasses()*2)
	r.vaFree = make([]uint64, cfg.VCClasses()*2)
	r.vaSlots = make([]int, p)
	if cfg.Arch != config.ViChaR {
		r.vaFlats = make([]int, 0, p*r.maxVCs)
		r.vaKeys = make([]int, 0, p*r.maxVCs)
		chains := make([]int32, 4*p*r.maxVCs)
		r.vaPick, chains = chains[:p*r.maxVCs], chains[p*r.maxVCs:]
		r.vaHead, chains = chains[:p*r.maxVCs], chains[p*r.maxVCs:]
		r.vaTail, r.vaNext = chains[:p*r.maxVCs], chains[p*r.maxVCs:]
		for k := range r.vaHead {
			r.vaHead[k] = -1
		}
	}
	return r
}

// ID returns the router's node id.
func (r *Router) ID() int { return r.id }

// rows returns every input port's row of one mask kind from the mask
// block, ports consecutive: port p's words start at p*maskW.
func (r *Router) rows(kind int) []uint64 {
	n := r.ports * r.maskW
	return r.masks[kind*n : kind*n+n : kind*n+n]
}

// mask returns input port p's row of one mask kind.
func (r *Router) mask(kind, p int) []uint64 {
	i := (kind*r.ports + p) * r.maskW
	return r.masks[i : i+r.maskW : i+r.maskW]
}

// setBit and clearBit flip bit v of input port p's row of one mask
// kind.
func (r *Router) setBit(kind, p, v int) {
	r.masks[(kind*r.ports+p)*r.maskW+v>>6] |= 1 << (uint(v) & 63)
}

func (r *Router) clearBit(kind, p, v int) {
	r.masks[(kind*r.ports+p)*r.maskW+v>>6] &^= 1 << (uint(v) & 63)
}

// stalled reports whether a fault-model stall freezes input port p's
// control logic this cycle.
func (r *Router) stalled(p int) bool { return r.faults != nil && r.faults.Stalled(p) }

// ConnectOutput wires output port p to a downstream link and the
// credit view mirroring the downstream input port (or the sink view
// for the local ejection port). Unconnected cardinal ports on mesh
// edges stay nil; the routing function never selects them.
func (r *Router) ConnectOutput(p int, conn FlitSender, view CreditView) {
	o := &r.out[p]
	o.conn = conn
	o.view = view
	o.vichar, _ = view.(*vicharView)
}

// ConnectInputCredit wires input port p's upstream credit channel.
func (r *Router) ConnectInputCredit(p int, credit CreditSender) {
	r.in[p].credit = credit
}

// SetRecorder attaches the flit-event staging buffer. Like the ports
// it must be wired before the first tick.
func (r *Router) SetRecorder(rec *metrics.Recorder) { r.rec = rec }

// SetFaults attaches the router's fault-model state; wired before the
// first tick, nil (the default) keeps the fault paths a pointer check.
func (r *Router) SetFaults(s *faults.RouterState) { r.faults = s }

// SetEscapeTree switches deadlock-escape routing from the XY escape
// network to a fault-aware up*/down* tree; wired before the first
// tick when the fault schedule contains hard link failures.
func (r *Router) SetEscapeTree(t *routing.EscapeTree) { r.escapeTree = t }

// OutputView returns the credit view at output port p (tests and the
// network interface use it).
func (r *Router) OutputView(p int) CreditView { return r.out[p].view }

// ReceiveFlit writes a delivered flit into input port p's buffer.
// The upstream credit view guarantees space; a full buffer here is a
// flow-control bug and panics.
func (r *Router) ReceiveFlit(p int, f *flit.Flit, now int64) {
	if err := r.in[p].buf.Write(f, now); err != nil {
		//vichar:invariant upstream credit view guarantees space; a full buffer is a flow-control conservation bug
		panic(fmt.Sprintf("router %d port %d: %v", r.id, p, err))
	}
	r.setBit(bufMask, p, f.VC)
	r.act.BufWrites[p]++
}

// ReceiveCredit applies an upstream-bound credit at output port p.
func (r *Router) ReceiveCredit(p int, c flit.Credit) { r.out[p].view.OnCredit(c) }

// Tick advances the router one cycle. Stages run in reverse pipeline
// order (SA, then VA, then RC) so a flit progresses exactly one stage
// per cycle; switch traversal is folded into the FlitDelay of the
// link enqueue performed by SA winners.
//
// In the speculative organization (Peh & Dally, HPCA 2001; paper
// §3.1) VA runs before SA within the cycle, so a head granted a VC
// bids for the switch the same cycle — speculation modeled as always
// succeeding — shortening the pipeline to RC, VA/SA, ST.
//
// Tick is the compute step of the network's two-phase cycle kernel
// (DESIGN.md §10) and honors its ownership contract: it reads and
// writes only this router's state — input buffers, VC state machines,
// per-output credit views — plus the write ends of links this router
// owns (output flit links and input-port credit links). It never
// touches another router, so the kernel may run all routers' Ticks
// concurrently between barriers.
//
// Each stage reads only its kinds of row from the mask block and skips
// a port whose rows are zero before touching the port: such a port
// adds no request, nominee, grant, counter or event to the stage, so
// the skip is the identity (DESIGN.md §10.7).
func (r *Router) Tick(now int64) {
	if r.faults != nil {
		r.faults.BeginCycle(now)
		for p := 0; p < r.ports; p++ {
			if r.faults.Stalled(p) {
				r.act.PortStalls[p]++
			}
		}
	}
	r.escapeCheck(now)
	if r.cfg.Speculative {
		r.tickVA(now)
		r.tickSA(now)
	} else {
		r.tickSA(now)
		r.tickVA(now)
	}
	r.tickRC(now)
}

// tickRC performs routing computation for newly arrived head flits.
// Buffer write happens in parallel with RC, so a head arriving this
// cycle routes this cycle (Front is probed at now+1).
func (r *Router) tickRC(now int64) {
	w := r.maskW
	buf, va, act := r.rows(bufMask), r.rows(vaMask), r.rows(actMask)
	for ip := 0; ip < r.ports; ip++ {
		for wi := 0; wi < w; wi++ {
			// Idle VCs holding flits: buffered but neither waiting nor
			// granted. The mask invariants make the state check implicit.
			i := ip*w + wi
			m := buf[i] &^ (va[i] | act[i])
			if m == 0 || r.stalled(ip) {
				continue
			}
			in := &r.in[ip]
			for ; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m)
				v := wi<<6 + b
				st := &in.vc[v]
				f := in.buf.Front(v, now+1)
				if f == nil {
					continue // still in (DAMQ) arrival bookkeeping
				}
				if !f.IsHead() {
					//vichar:invariant an idle VC must start with a head flit; a body here means VC state-machine corruption
					panic(fmt.Sprintf("router %d: %s at head of idle vc %d", r.id, f, v))
				}
				st.pkt = f.Pkt
				if f.Pkt.Escaped {
					st.cands = routing.OneCandidate(r.escapePort(f.Pkt.Dst))
				} else {
					// Memoized RC: a flat table load per head flit
					// (DESIGN.md §10), same candidates in the same order
					// as the routing function itself.
					st.cands = r.tables.Candidates(r.id, f.Pkt.Dst)
				}
				va[i] |= 1 << uint(b)
				st.waitSince = now
				r.act.RC++
				if r.rec != nil {
					r.rec.StageEvent(metrics.Event{
						Cycle: now, Kind: metrics.EvRC, Packet: f.Pkt.ID, Flit: -1,
						Node: r.id, Port: -1, VC: v,
					})
				}
			}
		}
	}
}

// resetVAMasks clears the lazily-filled VA candidate masks at the top
// of a VA tick; a handful of word stores.
func (r *Router) resetVAMasks() {
	for k := range r.vaKnown {
		r.vaKnown[k] = 0
		r.vaFree[k] = 0
	}
	r.vaSlotsKnown = 0
}

// portFree reports whether output port p can grant a VC of the kind
// (class, escape), polling the credit view at most once per tick per
// (port, kind) and memoizing the answer in the vaFree bitmask.
func (r *Router) portFree(p, k, class int, escape bool) bool {
	bit := uint64(1) << uint(p)
	if r.vaKnown[k]&bit == 0 {
		r.vaKnown[k] |= bit
		o := &r.out[p]
		// Unconnected edge ports stay dark; a dead output link accepts
		// no new packets (worms granted the link before it died keep
		// draining — SA does not consult candidates).
		if o.view != nil && (r.faults == nil || !r.faults.LinkDead(p)) && o.view.FreeVC(class, escape, 0) >= 0 {
			r.vaFree[k] |= bit
		}
	}
	return r.vaFree[k]&bit != 0
}

// portSlots returns output port p's free downstream slots, memoized
// per tick like portFree. Only called for ports portFree approved, so
// the view is connected.
func (r *Router) portSlots(p int) int {
	bit := uint64(1) << uint(p)
	if r.vaSlotsKnown&bit == 0 {
		r.vaSlotsKnown |= bit
		r.vaSlots[p] = r.out[p].view.FreeSlots()
	}
	return r.vaSlots[p]
}

// bestCandidate scores the packet's candidate output ports by VC
// availability then free downstream slots, returning -1 when no
// candidate can currently grant a VC of the required kind within the
// packet's VC class. Candidates come memoized from the route tables;
// availability is a bit test against the lazily-filled vaFree masks,
// with ties broken toward the first-listed candidate exactly as
// direct per-VC polling did. Deterministic functions have a single
// candidate and skip the slot scoring entirely (a lone candidate
// always won the old s > -1 comparison).
func (r *Router) bestCandidate(st *vcState, class int, escape bool) int {
	k := class << 1
	if escape {
		k |= 1
	}
	cands := st.cands
	if cands.Len() == 1 {
		if p := cands.At(0); r.portFree(p, k, class, escape) {
			return p
		}
		return -1
	}
	best, bestSlots := -1, -1
	for i := 0; i < cands.Len(); i++ {
		p := cands.At(i)
		if !r.portFree(p, k, class, escape) {
			continue
		}
		if s := r.portSlots(p); s > bestSlots {
			best, bestSlots = p, s
		}
	}
	return best
}

// escapeCheck re-channels packets that have waited past the deadlock
// threshold onto the deterministic escape path (the Token Dispenser's
// deadlock-recovery flow, paper Figure 10).
func (r *Router) escapeCheck(now int64) {
	if !r.cfg.NeedsEscape() {
		return
	}
	w, va := r.maskW, r.rows(vaMask)
	for ip := 0; ip < r.ports; ip++ {
		for wi, m := range va[ip*w : ip*w+w] {
			// A frozen port's control logic cannot re-channel; the wait
			// clock keeps running, so the packet escapes as soon as the
			// stall lifts.
			if m == 0 || r.stalled(ip) {
				continue
			}
			in := &r.in[ip]
			for ; m != 0; m &= m - 1 {
				st := &in.vc[wi<<6+bits.TrailingZeros64(m)]
				if st.pkt.Escaped {
					continue
				}
				if now-st.waitSince > int64(r.cfg.DeadlockThreshold) {
					st.pkt.Escaped = true
					st.cands = routing.OneCandidate(r.escapePort(st.pkt.Dst))
					r.act.Reroutes++
				}
			}
		}
	}
}

// escapePort returns the deterministic escape-network output port for
// a packet bound for dst: the fault-aware up*/down* tree when hard
// link failures are scheduled, the never-wrapping XY escape network
// otherwise.
func (r *Router) escapePort(dst int) int {
	if r.escapeTree != nil {
		return r.escapeTree.NextHop(r.id, dst)
	}
	return r.tables.EscapePort(r.id, dst)
}

// tickVA performs the two-stage virtual channel allocation.
// Deadlock-escape re-channeling (escapeCheck) has already run at the
// top of Tick; it only retargets VCs still waiting (vaMask), which tickSA
// never touches, so hoisting it out of VA leaves the serial semantics
// unchanged in both pipeline organizations.
func (r *Router) tickVA(now int64) {
	if r.cfg.Arch == config.ViChaR {
		r.tickVAViChaR(now)
	} else {
		r.tickVAGeneric(now)
	}
}

// tickVAViChaR implements paper Figure 7(b): a vk:1 arbiter per input
// port nominates one waiting VC; a P:1 arbiter per output port picks
// among nominees; the winner's packet receives the next free token
// from the output's dispenser view.
func (r *Router) tickVAViChaR(now int64) {
	mw, va := r.maskW, r.rows(vaMask)
	if zero(va) {
		return
	}
	noms := r.vaNoms
	var nominated uint64 // input ports with a stage-1 nominee in noms
	contenders, grants := 0, 0
	r.resetVAMasks()
	req := r.reqWords[:mw]
	for ip := 0; ip < r.ports; ip++ {
		row := va[ip*mw : ip*mw+mw]
		if zero(row) || r.stalled(ip) {
			continue
		}
		in := &r.in[ip]
		any := false
		for wi, m := range row {
			req[wi] = 0
			for ; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m)
				st := &in.vc[wi<<6+b]
				if r.bestCandidate(st, int(st.pkt.Class), st.pkt.Escaped) >= 0 {
					req[wi] |= 1 << uint(b)
					any = true
					contenders++
				}
			}
		}
		if !any {
			continue
		}
		r.act.VAOps++
		w := r.vaS1[ip].ArbitrateMask(req)
		if w < 0 {
			continue
		}
		st := &in.vc[w]
		p := r.bestCandidate(st, int(st.pkt.Class), st.pkt.Escaped)
		noms[ip] = vaNominee{invc: w, port: p, escape: st.pkt.Escaped}
		nominated |= 1 << uint(ip)
	}
	// Stage 2: one grant per output port. A single pass over the
	// nominees builds each contested port's input-request word;
	// TrailingZeros over anyOp then visits ports in the same ascending
	// order as the old op loop, skipping uncontested ones.
	opReq := r.opReq
	var anyOp uint64
	for m := nominated; m != 0; m &= m - 1 {
		ip := bits.TrailingZeros64(m)
		op := noms[ip].port
		if anyOp&(1<<uint(op)) == 0 {
			anyOp |= 1 << uint(op)
			opReq[op] = 0
		}
		opReq[op] |= 1 << uint(ip)
	}
	for m := anyOp; m != 0; {
		op := bits.TrailingZeros64(m)
		m &^= 1 << uint(op)
		w := r.vaS2[op].ArbitrateMask(opReq[op : op+1])
		if w < 0 {
			continue
		}
		n := noms[w]
		class := int(r.in[w].vc[n.invc].pkt.Class)
		vc := r.out[op].view.FreeVC(class, n.escape, 0)
		if vc < 0 {
			continue // availability changed within the cycle; retry next
		}
		r.out[op].view.ClaimVC(class, vc)
		r.grant(w, n.invc, op, vc, now)
		grants++
	}
	r.act.VADenials += uint64(contenders - grants)
}

// grant commits a VA decision: input VC v of port ip moves from
// waiting to active on output (op, ovc).
func (r *Router) grant(ip, v, op, ovc int, now int64) {
	in := &r.in[ip]
	r.clearBit(vaMask, ip, v)
	r.setBit(actMask, ip, v)
	in.outInfo[v] = packRoute(op, ovc)
	r.act.VAGrants++
	if r.rec != nil {
		r.rec.StageEvent(metrics.Event{
			Cycle: now, Kind: metrics.EvVAGrant, Packet: in.vc[v].pkt.ID, Flit: -1,
			Node: r.id, Port: op, VC: ovc,
		})
	}
}

// tickVAGeneric implements paper Figure 7(a): each waiting input VC
// reduces its requests to a single (output port, output VC) pair in
// stage 1; a Pv:1 arbiter per output VC resolves conflicts in
// stage 2. DAMQ and FC-CB share this structure (their VC count is
// fixed like the generic router's).
//
// All bookkeeping is index-ordered (flat input-VC ids ascending, then
// contested output VCs in first-nomination order): hardware evaluates
// these arbiters in parallel, and the software model must not let an
// iteration order — in particular Go's randomized map order — leak
// into arbiter priority evolution. vichar-lint's map-range rule
// enforces this structurally.
func (r *Router) tickVAGeneric(now int64) {
	mw, va := r.maskW, r.rows(vaMask)
	if zero(va) {
		return
	}
	r.resetVAMasks()
	flats := r.vaFlats[:0]
	for ip := 0; ip < r.ports; ip++ {
		for wi, m := range va[ip*mw : ip*mw+mw] {
			if m == 0 || r.stalled(ip) {
				continue
			}
			in := &r.in[ip]
			for ; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m)
				v := wi<<6 + b
				st := &in.vc[v]
				escape := st.pkt.Escaped
				class := int(st.pkt.Class)
				op := r.bestCandidate(st, class, escape)
				if op < 0 {
					continue
				}
				ovc := r.out[op].view.FreeVC(class, escape, v)
				if ovc < 0 {
					continue
				}
				flat := ip*r.maxVCs + v
				r.vaPick[flat] = int32(op*r.maxVCs + ovc)
				//vichar:alloc the nomination scratch is pre-sized to ports*maxVCs at construction; append never exceeds that capacity
				flats = append(flats, flat)
				r.act.VAOps++
			}
		}
	}
	r.vaFlats = flats
	if len(flats) == 0 {
		return
	}
	grants := 0
	// Stage 2: per contested output VC, arbitrate among all
	// requesting input VCs. Output VCs are visited in the order of
	// their first nomination (ascending flat id), which is a pure
	// function of router state.
	keys := r.vaKeys[:0]
	for _, flat := range flats {
		k := r.vaPick[flat]
		if r.vaHead[k] < 0 {
			//vichar:alloc the key scratch is pre-sized to ports*maxVCs at construction; append never exceeds that capacity
			keys = append(keys, int(k))
			r.vaHead[k] = int32(flat)
		} else {
			r.vaNext[r.vaTail[k]] = int32(flat)
		}
		r.vaTail[k] = int32(flat)
		r.vaNext[flat] = -1
	}
	r.vaKeys = keys
	req := r.reqWords
	for _, k := range keys {
		op, ovc := k/r.maxVCs, k%r.maxVCs
		for i := range req {
			req[i] = 0
		}
		for flat := r.vaHead[k]; flat >= 0; flat = r.vaNext[flat] {
			req[flat>>6] |= 1 << (uint(flat) & 63)
		}
		r.vaHead[k] = -1
		w := r.vaS2G[k].ArbitrateMask(req)
		if w < 0 {
			continue
		}
		ip, v := w/r.maxVCs, w%r.maxVCs
		r.out[op].view.ClaimVC(int(r.in[ip].vc[v].pkt.Class), ovc)
		r.grant(ip, v, op, ovc, now)
		grants++
	}
	r.act.VADenials += uint64(len(flats) - grants)
}

// tickSA performs the two-stage switch allocation and moves winners
// through the crossbar onto their links.
func (r *Router) tickSA(now int64) {
	mw, act := r.maskW, r.rows(actMask)
	if zero(act) {
		return
	}
	var nominated uint64 // input ports with a stage-1 nominee in saNominee
	contenders, grants := 0, 0
	req := r.reqWords[:mw]
	for ip := 0; ip < r.ports; ip++ {
		row := act[ip*mw : ip*mw+mw]
		if zero(row) || r.stalled(ip) {
			continue
		}
		in := &r.in[ip]
		// Stage 1 visits only VCs that hold a granted route (actMask)
		// and a readable head flit (the buffer's first-readable stamp),
		// then polls downstream credit on the packed outInfo route.
		any := false
		for wi, m := range row {
			w := uint64(0)
			for ; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m)
				v := wi<<6 + b
				if in.readyAt[v] > now {
					continue
				}
				info := in.outInfo[v]
				op := info >> outInfoShift
				if r.out[op].canSend(int(info & (1<<outInfoShift - 1))) {
					w |= 1 << uint(b)
				} else {
					r.act.CreditStalls[op]++
				}
			}
			req[wi] = w
			contenders += bits.OnesCount64(w)
			any = any || w != 0
		}
		if !any {
			continue
		}
		r.act.SAOps++
		if v := r.saS1[ip].ArbitrateMask(req); v >= 0 {
			r.saNominee[ip] = v
			nominated |= 1 << uint(ip)
		}
	}
	// Stage 2: one pass over the nominees builds each contested output
	// port's input-request word; ports are then arbitrated in ascending
	// order (TrailingZeros over anyOp), exactly the old op loop's order
	// but touching only ports somebody asked for.
	opReq := r.opReq
	var anyOp uint64
	for m := nominated; m != 0; m &= m - 1 {
		ip := bits.TrailingZeros64(m)
		v := r.saNominee[ip]
		op := r.in[ip].outInfo[v] >> outInfoShift
		if anyOp&(1<<op) == 0 {
			anyOp |= 1 << op
			opReq[op] = 0
		}
		opReq[op] |= 1 << uint(ip)
	}
	for m := anyOp; m != 0; {
		op := bits.TrailingZeros64(m)
		m &^= 1 << uint(op)
		w := r.saS2[op].ArbitrateMask(opReq[op : op+1])
		if w < 0 {
			continue
		}
		r.forward(w, r.saNominee[w], op, now)
		grants++
	}
	r.act.SADenials += uint64(contenders - grants)
}

// forward pops the SA-winning flit and sends it across the crossbar
// and link, returning a credit upstream.
func (r *Router) forward(ip, v, op int, now int64) {
	in := &r.in[ip]
	_, ovc := in.route(v)
	f, err := in.buf.Pop(v, now)
	if err != nil {
		//vichar:invariant SA only nominates VCs with a readable front flit within the same cycle
		panic(fmt.Sprintf("router %d: SA winner vanished: %v", r.id, err))
	}
	if in.buf.Len(v) == 0 {
		r.clearBit(bufMask, ip, v)
	}
	r.act.BufReads[ip]++
	if r.rec != nil {
		r.rec.StageEvent(metrics.Event{
			Cycle: now, Kind: metrics.EvSAGrant, Packet: f.Pkt.ID, Flit: f.Seq,
			Node: r.id, Port: op, VC: ovc,
		})
	}

	if in.credit != nil {
		in.credit.SendCredit(flit.Credit{VC: v, ReleaseVC: f.IsTail()}, now)
	}

	f.VC = ovc
	r.out[op].view.OnSend(f)
	r.out[op].conn.SendFlit(f, now)

	if f.IsTail() {
		r.clearBit(actMask, ip, v)
		in.outInfo[v] = 0
		in.vc[v] = vcState{}
	}
}

// Occupied returns the total flits buffered across all input ports.
func (r *Router) Occupied() int {
	n := 0
	for i := range r.in {
		n += r.in[i].buf.Occupied()
	}
	return n
}

// Quiescent reports whether a Tick would be a pure no-op: no VC on
// any input port buffers a flit, waits for allocation or holds a
// grant, and no fault model is attached (fault schedules mutate state
// every cycle regardless of traffic). The network's active-router
// worklist uses this to put drained routers to sleep; every stage
// iterates only the masks checked here, and the arbiters and counters
// are untouched when no request exists, so skipping a
// quiescent router's Tick is bit-exact (DESIGN.md §10).
func (r *Router) Quiescent() bool {
	return r.faults == nil && zero(r.masks)
}

// TotalSlots returns the router's total input buffering.
func (r *Router) TotalSlots() int { return r.ports * r.cfg.BufferSlots }

// InUseVCsPerPort returns the mean number of in-use virtual channels
// per input port: a VC is in use when its state machine holds a
// packet or it still buffers flits.
func (r *Router) InUseVCsPerPort() float64 {
	n := 0
	buf, va, act := r.rows(bufMask), r.rows(vaMask), r.rows(actMask)
	for i := range buf {
		n += bits.OnesCount64(buf[i] | va[i] | act[i])
	}
	return float64(n) / float64(r.ports)
}

// InputBuffer exposes the buffer at input port p for tests and
// diagnostics.
func (r *Router) InputBuffer(p int) buffers.Buffer { return r.in[p].buf }

// AuditInvariants runs the invariant auditor over every input port,
// returning the first violation: the buffer scan mask mirroring the
// buffer, VC-class separation, and — for
// ports with a unified buffer — VC Control Table ↔ Slot Availability
// Tracker coherence, slot-leak freedom and one-packet-per-VC. Ports
// without a UBS (the fixed organizations) have no cross-view
// bookkeeping to diverge and skip the UBS checks. The network invokes
// this every cycle when Config.Audit is set.
func (r *Router) AuditInvariants() error {
	layout := layoutOf(r.cfg)
	for p := range r.in {
		in := &r.in[p]
		buf, va, act := r.mask(bufMask, p), r.mask(vaMask, p), r.mask(actMask, p)
		for v := 0; v < r.maxVCs; v++ {
			// bufMask must mirror the buffer — the worklist's quiescence
			// decision and RC's iteration set depend on it.
			if got, want := has(buf, v), in.buf.Len(v) > 0; got != want {
				//vichar:alloc violation reporting on the opt-in audit path (Config.Audit), not the steady-state tick
				return fmt.Errorf("router %d port %d vc %d: bufMask=%v but buffered=%d", r.id, p, v, got, in.buf.Len(v))
			}
			// VC-class separation: an occupied VC's ID chunk must match
			// its packet's class, and so must a granted output VC (the
			// ejection sink aside — its "VC 0" is not a real channel).
			if layout.classes > 1 && (has(va, v) || has(act, v)) {
				pc := int(in.vc[v].pkt.Class)
				if err := audit.CheckVCClass("input", r.id, p, v, layout.classOf(v), pc); err != nil {
					return err
				}
				if op, ovc := in.route(v); has(act, v) {
					if _, sink := r.out[op].view.(*sinkView); !sink {
						if err := audit.CheckVCClass("output", r.id, op, ovc, layout.classOf(ovc), pc); err != nil {
							return err
						}
					}
				}
			}
		}
		ubs, ok := in.buf.(*core.UBS)
		if !ok {
			continue
		}
		if err := audit.CheckUBS(ubs); err != nil {
			//vichar:alloc violation reporting on the opt-in audit path (Config.Audit), not the steady-state tick
			return fmt.Errorf("router %d port %d: %w", r.id, p, err)
		}
	}
	return nil
}

// DebugState renders the router's microarchitectural state — per-VC
// state machines, buffered flit counts, output credit views — for
// deadlock diagnosis.
func (r *Router) DebugState() string {
	var b []byte
	b = fmt.Appendf(b, "router %d\n", r.id)
	for ip := range r.in {
		in := &r.in[ip]
		for v := range in.vc {
			st := &in.vc[v]
			switch {
			case has(r.mask(vaMask, ip), v):
				b = fmt.Appendf(b, "  in[%s] vc%d: waitVA len=%d pkt=%v cands=%v since=%d esc=%v",
					topology.PortName(ip), v, in.buf.Len(v), st.pkt, st.cands, st.waitSince, st.pkt.Escaped)
			case has(r.mask(actMask, ip), v):
				op, ovc := in.route(v)
				b = fmt.Appendf(b, "  in[%s] vc%d: active len=%d pkt=%v out=%s/vc%d",
					topology.PortName(ip), v, in.buf.Len(v), st.pkt, topology.PortName(op), ovc)
			case in.buf.Len(v) > 0:
				b = fmt.Appendf(b, "  in[%s] vc%d: idle len=%d", topology.PortName(ip), v, in.buf.Len(v))
			default:
				continue
			}
			b = append(b, '\n')
		}
	}
	for op := range r.out {
		out := &r.out[op]
		if out.view == nil {
			continue
		}
		b = fmt.Appendf(b, "  out[%s]: freeSlots=%d outstandingVCs=%d\n",
			topology.PortName(op), out.view.FreeSlots(), out.view.OutstandingVCs())
	}
	return string(b)
}
