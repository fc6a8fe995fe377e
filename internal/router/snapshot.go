package router

import (
	"math"

	"vichar/internal/arbiter"
	"vichar/internal/flit"
	"vichar/internal/snap"
)

// This file is the router's checkpoint walk: the activity counters,
// each input port's buffer contents, VC state machines and scan masks,
// each output port's credit view, the arbiter banks' priority pointers,
// and the fault-model stall registers. Per-tick scratch (nominee
// arrays, request masks) is dead between Steps and never serialized,
// and the packed SA routes re-derive from the VC state machines.
// Everything loads into a router freshly constructed from the same
// configuration: masks and outInfo are arena-backed and aliased by the
// network's worklist scans, so they load in place.

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
	c.Int(&v.rr)
	c.Range(v.rr, 0, len(v.credits)-1, "router: credit-view allocation pointer")
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
	c.Int(&v.rr)
	c.Range(v.rr, 0, len(v.open)-1, "router: credit-view allocation pointer")
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
	c.Bools(v.granted)
	c.I16s(v.held)
	for _, n := range v.held {
		c.Range(int(n), 0, v.slots, "router: per-VC resident flit count")
	}
	c.Bools(v.kindRes)
	v.dispenser.State(c)
	// Every slot is free in the pool, parked as a kind's grant reserve
	// or a granted VC's reservation, or holding a resident flit — and
	// only a VC whose token is out has either of the last two.
	slots, tokens := v.sharedFree, 0
	for vc, held := range v.held {
		slots += int(held)
		if v.resFree[vc] {
			slots++
		}
		if v.granted[vc] {
			tokens++
		} else if held > 0 || v.resFree[vc] {
			c.Failf("router: snapshot VC %d holds UBS slots without a token", vc)
		}
	}
	for _, free := range v.kindRes {
		if free {
			slots++
		}
	}
	c.Range(slots, v.slots, v.slots, "router: UBS slots accounted for")
	c.Range(tokens, v.dispenser.InUse(), v.dispenser.InUse(), "router: VCs granted, against tokens out of the dispenser")
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

// walk is the checkpoint walk of one input VC's allocation state
// machine.
func (st *vcState) walk(c *snap.Codec, ports, vcs int) {
	c.U8(&st.state)
	c.Range(int(st.state), int(vcIdle), int(vcActive), "router: VC state")
	c.Packet(&st.pkt)
	c.Check((st.pkt != nil) == (st.state != vcIdle), "router: snapshot VC holds a packet exactly when it is not idle")
	c.U8((*uint8)(&st.cands))
	c.Range(st.cands.Len(), 0, 2, "router: VC route candidates")
	for i := 0; i < st.cands.Len(); i++ {
		c.Range(st.cands.At(i), 0, ports-1, "router: VC route candidate port")
	}
	c.U8(&st.outPort)
	c.Range(int(st.outPort), 0, ports-1, "router: VC output port")
	c.I16(&st.outVC)
	c.Range(int(st.outVC), 0, vcs-1, "router: VC output channel")
	c.I64(&st.waitSince)
}

// wormholeOK reports whether input VC v's state machine agrees with
// its queue and its route: an idle VC holds nothing or a head flit
// still to be routed, a busy one only flits of its packet, and a
// granted output VC is one its port's view has out, to this VC alone
// (taken marks the ones seen so far) — and the ejection port is granted
// only at the packet's destination.
func (r *Router) wormholeOK(in *inputPort, v int, taken []bool) bool {
	st := &in.vc[v]
	head := in.buf.Front(v, math.MaxInt64) // the head flit, readable yet or not
	if st.state == vcIdle {
		return head == nil || head.Seq == 0
	}
	if head != nil && head.Pkt != st.pkt {
		return false
	}
	if st.state != vcActive {
		return true
	}
	view := r.out[st.outPort].view
	if _, sink := view.(*sinkView); sink {
		return st.pkt.Dst == r.id
	}
	held := &taken[int(st.outPort)*r.maxVCs+int(st.outVC)]
	if view == nil || !view.Holds(int(st.outVC)) || *held {
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
		for v := range r.in[p].vc {
			if st := &r.in[p].vc[v]; st.state == vcActive && int(st.outPort) == port {
				pkts[st.outVC] = st.pkt
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
		for v := range in.vc {
			in.vc[v].walk(c, r.ports, r.maxVCs)
		}
		for _, mask := range [][]uint64{in.bufMask, in.vaMask, in.actMask} {
			c.U64s(mask)
			c.Mask(mask, r.maxVCs, "router: VC scan mask")
		}
		if c.Loading() {
			// The packed SA routes mirror the active VCs' state machines.
			for v := range in.outInfo {
				in.outInfo[v] = 0
				if st := &in.vc[v]; st.state == vcActive {
					in.outInfo[v] = packRoute(int(st.outPort), int(st.outVC))
				}
			}
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
			if c.Err() == nil && !r.wormholeOK(&r.in[p], v, taken) {
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
