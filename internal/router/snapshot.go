package router

import (
	"math"

	"vichar/internal/arbiter"
	"vichar/internal/flit"
	"vichar/internal/snap"
	"vichar/internal/topology"
)

// This file is the router's checkpoint walk: the activity counters,
// each input port's buffer contents, scan masks (the VC state machines)
// and per-VC packet records with the active VCs' granted routes, each
// output port's credit view, the arbiter banks' priority pointers, and
// the fault-model stall registers. Per-tick scratch (nominee arrays,
// request masks) is dead between Steps and never serialized.
// Everything loads into a router freshly constructed from the same
// configuration: the mask block and outInfo are arena-backed, so they
// load in place.

// State walks a credit view's mutable mirror state. The view kind is
// wiring (it re-derives from the configuration and port role), so the
// kind marker travels only to catch a snapshot of another
// configuration.
func (v *genericView) State(c *snap.Codec) {
	c.Section("genview")
	c.I16s(v.credits)
	for _, n := range v.credits {
		c.Range(int(n), 0, int(v.depth), "router: per-VC credit count")
	}
	c.Bools(v.open)
}

// State walks the shared-pool view's mirror state.
func (v *sharedView) State(c *snap.Codec) {
	c.Section("sharedview")
	c.Int(&v.sharedFree)
	c.Range(v.sharedFree, 0, v.slots-len(v.open), "router: shared-pool free count")
	c.Bools(v.resFree)
	c.I16s(v.held)
	for _, n := range v.held {
		c.Range(int(n), 0, v.slots, "router: per-VC resident flit count")
	}
	c.Bools(v.open)
	// Every slot is free in the pool, parked as a queue's reservation,
	// or holding a resident flit.
	slots := v.sharedFree
	for vc, held := range v.held {
		slots += int(held)
		if v.resFree[vc] {
			slots++
		}
	}
	c.Range(slots, v.slots, v.slots, "router: shared-pool slots accounted for")
}

// State walks the dispenser view's mirror state.
func (v *vicharView) State(c *snap.Codec) {
	c.Section("vicview")
	c.Int(&v.sharedFree)
	c.Range(v.sharedFree, 0, v.slots-len(v.kindRes), "router: shared-pool free count")
	c.Bools(v.resFree)
	c.I16s(v.held)
	for _, n := range v.held {
		c.Range(int(n), 0, v.slots, "router: per-VC resident flit count")
	}
	c.Bools(v.kindRes)
	v.tokens.State(c)
	// Every slot is free in the pool, parked as a kind's grant reserve
	// or a granted VC's reservation, or holding a resident flit — and
	// only a VC whose token is out has either of the last two.
	slots := v.sharedFree
	for vc, held := range v.held {
		slots += int(held)
		if v.resFree[vc] {
			slots++
		}
		if v.tokens.Available(vc) && (held > 0 || v.resFree[vc]) {
			c.Failf("router: snapshot VC %d holds UBS slots without a token", vc)
		}
	}
	for _, free := range v.kindRes {
		if free {
			slots++
		}
	}
	c.Range(slots, v.slots, v.slots, "router: UBS slots accounted for")
}

// State walks the ejection sink's outstanding-packet count.
func (v *sinkView) State(c *snap.Codec) {
	c.Section("sinkview")
	c.Int(&v.outstanding)
	c.Range(v.outstanding, 0, math.MaxInt, "router: ejection sink outstanding packets")
}

// bankState walks the priority pointers of one arbiter bank.
func bankState(c *snap.Codec, bank []arbiter.RoundRobin) {
	c.Expect(len(bank), "router: arbiter bank size")
	for i := range bank {
		bank[i].State(c)
	}
}

// walk is the checkpoint walk of input port p's VC v: its packet
// record and, while active, its granted route. The scan masks that say
// which of the two the VC has are walked before it.
func (r *Router) walk(c *snap.Codec, p, v int) {
	in, ports, vcs := &r.in[p], r.ports, r.maxVCs
	wait, active := has(r.mask(vaMask, p), v), has(r.mask(actMask, p), v)
	if wait && active {
		c.Failf("router: snapshot VC %d is set in both vaMask and actMask", v)
	}
	st := &in.vc[v]
	c.Packet(&st.pkt)
	if (st.pkt != nil) != (wait || active) {
		c.Failf("router: snapshot VC %d is busy in vaMask|actMask (%v) but holds a packet (%v)", v, wait || active, st.pkt != nil)
	}
	c.U8((*uint8)(&st.cands))
	c.Range(st.cands.Len(), 0, 2, "router: VC route candidates")
	for i := 0; i < st.cands.Len(); i++ {
		c.Range(st.cands.At(i), 0, ports-1, "router: VC route candidate port")
		// Routing computation offers the ejection port only at the
		// packet's destination; VA would eject anywhere else.
		if st.cands.At(i) == topology.Local && st.pkt != nil && st.pkt.Dst != r.id {
			c.Failf("router %d: snapshot VC %d offers packet %d the ejection port, but it is addressed to node %d", r.id, v, st.pkt.ID, st.pkt.Dst)
		}
	}
	c.I64(&st.waitSince)
	if active {
		op, ovc := in.route(v)
		port, ch := uint8(op), int16(ovc)
		c.U8(&port)
		c.Range(int(port), 0, ports-1, "router: VC output port (outInfo)")
		c.I16(&ch)
		c.Range(int(ch), 0, vcs-1, "router: VC output channel (outInfo)")
		if c.Loading() {
			in.outInfo[v] = packRoute(int(port), int(ch))
		}
	}
}

// wormholeOK reports whether input VC v's state machine agrees with
// its queue and its route: an idle VC holds nothing or a head flit
// still to be routed, a busy one only flits of its packet, and a
// granted output VC is one its port's view has out, to this VC alone
// (taken marks the ones seen so far) — and the ejection port is granted
// only at the packet's destination.
func (r *Router) wormholeOK(p, v int, taken []bool) bool {
	in := &r.in[p]
	st := &in.vc[v]
	head := in.buf.Front(v, math.MaxInt64) // the head flit, readable yet or not
	if st.pkt == nil {
		return head == nil || head.Seq == 0
	}
	if head != nil && head.Pkt != st.pkt {
		return false
	}
	if !has(r.mask(actMask, p), v) {
		return true
	}
	op, ovc := in.route(v)
	view := r.out[op].view
	if _, sink := view.(*sinkView); sink {
		return st.pkt.Dst == r.id
	}
	held := &taken[op*r.maxVCs+ovc]
	if view == nil || !view.Holds(ovc) || *held {
		return false
	}
	*held = true
	return true
}

// Granted fills pkts, indexed by output VC, with the packet each active
// input VC routed through port is sending there (nil where none is) —
// the upstream half of the network's loaded-checkpoint check that a
// held VC carries its holder's flits.
func (r *Router) Granted(port int, pkts []*flit.Packet) {
	clear(pkts)
	for p := range r.in {
		in, act := &r.in[p], r.mask(actMask, p)
		for v := range in.vc {
			if !has(act, v) {
				continue
			}
			if op, ovc := in.route(v); op == port {
				pkts[ovc] = in.vc[v].pkt
			}
		}
	}
}

// State walks the router's mutable pipeline state. Loading needs a
// router freshly constructed and wired from the same configuration.
func (r *Router) State(c *snap.Codec) {
	c.Section("router")
	a := &r.act
	c.U64s(a.BufWrites)
	c.U64s(a.BufReads)
	c.U64s(a.PortStalls)
	c.U64s(a.CreditStalls)
	c.U64(&a.RC)
	c.U64(&a.VAOps)
	c.U64(&a.VAGrants)
	c.U64(&a.VADenials)
	c.U64(&a.SAOps)
	c.U64(&a.SADenials)
	c.U64(&a.Reroutes)
	for p := range r.in {
		in := &r.in[p]
		in.buf.State(c)
		for kind := 0; kind < maskKinds; kind++ {
			mask := r.mask(kind, p)
			c.U64s(mask)
			c.Mask(mask, r.maxVCs, "router: VC scan mask")
		}
		for v := range in.vc {
			r.walk(c, p, v)
		}
	}
	for p := range r.out {
		// Boundary output ports of a mesh face no neighbor and carry no
		// view.
		if v := r.out[p].view; v != nil {
			v.State(c)
		} else {
			c.Section("noview")
		}
	}
	taken := make([]bool, r.ports*r.maxVCs) // output VCs some active input VC holds
	for p := range r.in {
		for v := range r.in[p].vc {
			if c.Err() == nil && !r.wormholeOK(p, v, taken) {
				c.Failf("router %d port %d vc %d: snapshot VC state disagrees with the flit at its head or with the output VC it was granted", r.id, p, v)
			}
		}
	}
	bankState(c, r.vaS1)
	bankState(c, r.vaS2)
	bankState(c, r.vaS2G)
	bankState(c, r.saS1)
	bankState(c, r.saS2)
	r.faults.State(c)
}
