package router

import (
	"fmt"

	"vichar/internal/arbiter"
	"vichar/internal/flit"
	"vichar/internal/routing"
	"vichar/internal/snap"
)

// This file implements the checkpoint half of the router pipeline:
// the activity counters, each input port's buffer contents, VC state
// machines, scan masks and packed routes, each output port's credit
// view, the arbiter banks' priority pointers, and the fault-model
// stall registers. Per-tick scratch (nominee arrays, request masks)
// is dead between Steps and never serialized, and the packed SA routes
// re-derive from the VC state machines. Everything loads into a
// router freshly constructed from the same configuration: masks and
// outInfo are arena-backed and aliased by the network's worklist
// scans, so they load in place.

// Packets calls fn for every packet referenced by this router's input
// buffers or VC state machines; the network's checkpoint walks it to
// build the snapshot's packet table. fn may see the same packet more
// than once.
func (r *Router) Packets(fn func(*flit.Packet)) {
	for p := range r.in {
		in := &r.in[p]
		in.buf.ForEachFlit(func(f *flit.Flit) { fn(f.Pkt) })
		for v := range in.vc {
			if pkt := in.vc[v].pkt; pkt != nil {
				fn(pkt)
			}
		}
	}
}

// SaveView serializes a credit view's mutable mirror state. The view
// kind is wiring (it re-derives from the configuration and port
// role), so a kind marker travels only to catch writer/reader drift.
func SaveView(w *snap.Writer, v CreditView) {
	switch cv := v.(type) {
	case nil:
		// Boundary output ports of a mesh face no neighbor and carry
		// no view.
		w.Section("noview")
	case *genericView:
		w.Section("genview")
		w.I16s(cv.credits)
		w.Bools(cv.open)
		w.Int(cv.rr)
	case *sharedView:
		w.Section("sharedview")
		w.Int(cv.sharedFree)
		w.Bools(cv.resFree)
		w.I16s(cv.held)
		w.Bools(cv.open)
		w.Int(cv.rr)
	case *vicharView:
		w.Section("vicview")
		w.Int(cv.sharedFree)
		w.Bools(cv.resFree)
		w.Bools(cv.granted)
		w.I16s(cv.held)
		w.Bools(cv.classRes)
		cv.dispenser.SaveState(w)
	case *sinkView:
		w.Section("sinkview")
		w.Int(cv.outstanding)
	default:
		//vichar:invariant every credit view the network wires is one of the four kinds above
		panic(fmt.Sprintf("router: unknown credit view %T", v))
	}
}

// LoadView restores state saved by SaveView into a view of the same
// kind and shape.
func LoadView(r *snap.Reader, v CreditView) error {
	switch cv := v.(type) {
	case nil:
		if err := r.Section("noview"); err != nil {
			return err
		}
	case *genericView:
		if err := r.Section("genview"); err != nil {
			return err
		}
		r.I16sInto(cv.credits)
		r.BoolsInto(cv.open)
		cv.rr = r.Int()
	case *sharedView:
		if err := r.Section("sharedview"); err != nil {
			return err
		}
		cv.sharedFree = r.Int()
		r.BoolsInto(cv.resFree)
		r.I16sInto(cv.held)
		r.BoolsInto(cv.open)
		cv.rr = r.Int()
	case *vicharView:
		if err := r.Section("vicview"); err != nil {
			return err
		}
		cv.sharedFree = r.Int()
		r.BoolsInto(cv.resFree)
		r.BoolsInto(cv.granted)
		r.I16sInto(cv.held)
		r.BoolsInto(cv.classRes)
		if err := cv.dispenser.LoadState(r); err != nil {
			return err
		}
	case *sinkView:
		if err := r.Section("sinkview"); err != nil {
			return err
		}
		cv.outstanding = r.Int()
	default:
		return fmt.Errorf("router: unknown credit view %T", v)
	}
	return r.Err()
}

// saveBank writes the priority pointers of one arbiter bank.
func saveBank(w *snap.Writer, bank []arbiter.RoundRobin) {
	w.Int(len(bank))
	for i := range bank {
		w.Int(bank[i].Pos())
	}
}

// loadBank restores the priority pointers of a bank of the same size.
func loadBank(r *snap.Reader, bank []arbiter.RoundRobin) error {
	if n := r.Int(); n != len(bank) {
		if r.Err() != nil {
			return r.Err()
		}
		return fmt.Errorf("router: snapshot arbiter bank size %d, constructed %d", n, len(bank))
	}
	for i := range bank {
		pos := r.Int()
		if r.Err() != nil {
			return r.Err()
		}
		if err := bank[i].SetPos(pos); err != nil {
			return err
		}
	}
	return r.Err()
}

// saveVC writes one input VC's allocation state machine.
func saveVC(w *snap.Writer, st *vcState) {
	w.U8(st.state)
	w.Packet(st.pkt)
	w.U8(uint8(st.cands))
	w.U8(st.outPort)
	w.I16(st.outVC)
	w.I64(st.waitSince)
}

// loadVC restores one input VC's allocation state machine.
func loadVC(r *snap.Reader, st *vcState, pkts snap.PacketResolver) error {
	state := r.U8()
	if r.Err() != nil {
		return r.Err()
	}
	if state > vcActive {
		return fmt.Errorf("router: snapshot VC state %d out of range", state)
	}
	pkt, err := r.Packet(pkts)
	if err != nil {
		return err
	}
	st.state = state
	st.pkt = pkt
	st.cands = routing.Candidates(r.U8())
	if st.cands.Len() > 2 {
		return fmt.Errorf("router: snapshot VC holds %d route candidates", st.cands.Len())
	}
	st.outPort = r.U8()
	st.outVC = r.I16()
	st.waitSince = r.I64()
	return r.Err()
}

// SaveState serializes the router's mutable pipeline state.
func (r *Router) SaveState(w *snap.Writer) {
	w.Section("router")
	a := &r.act
	w.U64s(a.BufWrites)
	w.U64s(a.BufReads)
	w.U64s(a.PortStalls)
	w.U64s(a.CreditStalls)
	w.U64(a.RC)
	w.U64(a.VAOps)
	w.U64(a.VAGrants)
	w.U64(a.VADenials)
	w.U64(a.SAOps)
	w.U64(a.SADenials)
	w.U64(a.Reroutes)
	for p := range r.in {
		in := &r.in[p]
		in.buf.SaveState(w)
		for v := range in.vc {
			saveVC(w, &in.vc[v])
		}
		w.U64s(in.bufMask)
		w.U64s(in.vaMask)
		w.U64s(in.actMask)
	}
	for p := range r.out {
		SaveView(w, r.out[p].view)
	}
	saveBank(w, r.vaS1)
	saveBank(w, r.vaS2)
	saveBank(w, r.vaS2G)
	saveBank(w, r.saS1)
	saveBank(w, r.saS2)
	r.faults.SaveState(w)
}

// LoadState restores state saved by SaveState into a router freshly
// constructed and wired from the same configuration.
func (r *Router) LoadState(rd *snap.Reader, resolve snap.Resolver, pkts snap.PacketResolver) error {
	if err := rd.Section("router"); err != nil {
		return err
	}
	a := &r.act
	rd.U64sInto(a.BufWrites)
	rd.U64sInto(a.BufReads)
	rd.U64sInto(a.PortStalls)
	rd.U64sInto(a.CreditStalls)
	a.RC = rd.U64()
	a.VAOps = rd.U64()
	a.VAGrants = rd.U64()
	a.VADenials = rd.U64()
	a.SAOps = rd.U64()
	a.SADenials = rd.U64()
	a.Reroutes = rd.U64()
	if err := rd.Err(); err != nil {
		return err
	}
	for p := range r.in {
		in := &r.in[p]
		if err := in.buf.LoadState(rd, resolve); err != nil {
			return err
		}
		for v := range in.vc {
			if err := loadVC(rd, &in.vc[v], pkts); err != nil {
				return err
			}
		}
		rd.U64sInto(in.bufMask)
		rd.U64sInto(in.vaMask)
		rd.U64sInto(in.actMask)
		// The packed SA routes mirror the active VCs' state machines.
		for v := range in.outInfo {
			in.outInfo[v] = 0
			if st := &in.vc[v]; st.state == vcActive {
				in.outInfo[v] = packRoute(int(st.outPort), int(st.outVC))
			}
		}
		if err := rd.Err(); err != nil {
			return err
		}
	}
	for p := range r.out {
		if err := LoadView(rd, r.out[p].view); err != nil {
			return err
		}
	}
	for _, bank := range [][]arbiter.RoundRobin{r.vaS1, r.vaS2, r.vaS2G, r.saS1, r.saS2} {
		if err := loadBank(rd, bank); err != nil {
			return err
		}
	}
	if err := r.faults.LoadState(rd); err != nil {
		return err
	}
	return rd.Err()
}
