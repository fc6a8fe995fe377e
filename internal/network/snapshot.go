package network

import (
	"fmt"
	"sort"

	"vichar/internal/flit"
	"vichar/internal/router"
	"vichar/internal/snap"
	"vichar/internal/trace"
)

// This file implements the network-level checkpoint: SaveState writes
// the complete mutable simulation state into a snap.Writer, and
// LoadState restores it into a network freshly constructed from the
// same configuration (construct-then-load: New rebuilds all wiring,
// arenas and slabs; load copies only values, in place wherever live
// pointers alias the backing arrays).
//
// Packets are serialized exactly once, in a table sorted by ID; every
// other occurrence of a packet or flit travels as a reference that
// resolves against the table at load time. A packet's flits are
// rebuilt in the packet record's own storage, so they keep their
// shared-identity structure, and each container applies the mutable
// (VC, ArrivedAt) fields of exactly the flits it holds.
//
// Snapshots are legal only between Steps: ejection staging and wake
// buffers are empty there, and router per-tick scratch is dead.
// SaveState verifies the former and refuses otherwise.

// pktTable resolves packet and flit references against the snapshot's
// packet table, materializing each packet's flit sequence on first
// use (packets still waiting in a source queue never materialize —
// their NI builds the flits at injection time, exactly like the
// straight-through run).
type pktTable struct {
	pkts map[uint64]*flit.Packet
}

func (t *pktTable) packet(id uint64) (*flit.Packet, error) {
	p, ok := t.pkts[id]
	if !ok {
		return nil, fmt.Errorf("network: snapshot references unknown packet %d", id)
	}
	return p, nil
}

// materialized returns packet id with its flits built.
func (t *pktTable) materialized(id uint64) (*flit.Packet, error) {
	p, err := t.packet(id)
	if err == nil && !p.Materialized() {
		p.Materialize()
	}
	return p, err
}

func (t *pktTable) flit(id uint64, seq int) (*flit.Flit, error) {
	p, err := t.materialized(id)
	if err != nil {
		return nil, err
	}
	if seq < 0 || seq >= p.Size {
		return nil, fmt.Errorf("network: snapshot references flit %d of packet %d (%d flits)", seq, id, p.Size)
	}
	return p.Flit(seq), nil
}

// collectPackets gathers every packet still referenced by live
// simulation state — source queues, mid-injection flit sequences,
// link payloads, retransmission buffers, input buffers and VC state
// machines — deduplicated and sorted by ID.
func (n *Network) collectPackets() []*flit.Packet {
	seen := make(map[uint64]bool)
	var out []*flit.Packet
	add := func(p *flit.Packet) {
		if p == nil || seen[p.ID] {
			return
		}
		seen[p.ID] = true
		out = append(out, p)
	}
	for _, s := range n.nis {
		for si := range s.streams {
			st := &s.streams[si]
			for i := st.qhead; i < len(st.queue); i++ {
				add(st.queue[i])
			}
			add(st.cur)
		}
	}
	for li := range n.flitSlab {
		l := &n.flitSlab[li]
		for i := 0; i < l.q.len(); i++ {
			add(l.q.at(i).f.Pkt)
		}
		add(heldPacket(l))
	}
	for _, r := range n.routers {
		r.Packets(add)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// heldPacket returns the packet of the link's retransmission-held
// flit, if any.
func heldPacket(l *flitLink) *flit.Packet {
	if f := l.faults.HeldFlit(); f != nil {
		return f.Pkt
	}
	return nil
}

// savePacket writes one packet's full record.
func savePacket(w *snap.Writer, p *flit.Packet) {
	w.U64(p.ID)
	w.Int(p.Src)
	w.Int(p.Dst)
	w.Int(p.Size)
	w.I64(p.CreatedAt)
	w.I64(p.InjectedAt)
	w.I64(p.EjectedAt)
	w.U64(p.SeqNo)
	w.Bool(p.Escaped)
	w.U8(p.Class)
	w.U8(p.Kind)
	w.U64(p.Req)
	w.Int(p.NextSeq)
}

// loadPacket reads one packet record. Every restored packet is a
// pooled record: whoever held the original's pointer holds none into
// the restored network.
func loadPacket(r *snap.Reader) *flit.Packet {
	return &flit.Packet{
		ID:         r.U64(),
		Src:        r.Int(),
		Dst:        r.Int(),
		Size:       r.Int(),
		CreatedAt:  r.I64(),
		InjectedAt: r.I64(),
		EjectedAt:  r.I64(),
		SeqNo:      r.U64(),
		Escaped:    r.Bool(),
		Class:      r.U8(),
		Kind:       r.U8(),
		Req:        r.U64(),
		NextSeq:    r.Int(),
		Pooled:     true,
	}
}

// saveFlitLink writes one flit link's in-flight payloads and fault
// state.
func (n *Network) saveFlitLink(w *snap.Writer, l *flitLink) {
	w.Int(l.q.len())
	for i := 0; i < l.q.len(); i++ {
		w.Flit(l.q.at(i).f)
		w.I64(l.q.at(i).at)
	}
	l.faults.SaveState(w)
}

// loadFlitLink restores one flit link, rewinding the ring to slot
// zero (layout, not state).
func (n *Network) loadFlitLink(r *snap.Reader, l *flitLink, resolve snap.Resolver) error {
	cnt := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if cnt < 0 || cnt > len(l.q.buf) {
		return fmt.Errorf("network: link occupancy %d in snapshot outside its %d-entry ring", cnt, len(l.q.buf))
	}
	l.q.reset()
	for i := 0; i < cnt; i++ {
		f, err := r.Flit(resolve)
		if err != nil {
			return err
		}
		if f == nil {
			return fmt.Errorf("network: nil flit reference on a link")
		}
		l.q.push(timedFlit{f: f, at: r.I64()})
		if r.Err() != nil {
			return r.Err()
		}
	}
	return l.faults.LoadState(r, resolve)
}

// saveCreditLink writes one credit link's in-flight credits.
func (n *Network) saveCreditLink(w *snap.Writer, l *creditLink) {
	w.Int(l.q.len())
	for i := 0; i < l.q.len(); i++ {
		tc := l.q.at(i)
		w.Int(tc.c.VC)
		w.Bool(tc.c.ReleaseVC)
		w.I64(tc.at)
	}
}

// loadCreditLink restores one credit link.
func (n *Network) loadCreditLink(r *snap.Reader, l *creditLink) error {
	cnt := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if cnt < 0 || cnt > len(l.q.buf) {
		return fmt.Errorf("network: credit-link occupancy %d in snapshot outside its %d-entry ring", cnt, len(l.q.buf))
	}
	l.q.reset()
	for i := 0; i < cnt; i++ {
		c := flit.Credit{VC: r.Int(), ReleaseVC: r.Bool()}
		l.q.push(timedCredit{c: c, at: r.I64()})
		if r.Err() != nil {
			return r.Err()
		}
	}
	return r.Err()
}

// saveNI writes one network interface's per-class source queues,
// mid-injection cursors, round-robin pointer and credit view.
func saveNI(w *snap.Writer, s *ni) {
	w.Section("ni")
	w.Int(len(s.streams))
	for si := range s.streams {
		st := &s.streams[si]
		w.Int(st.queued())
		for i := st.qhead; i < len(st.queue); i++ {
			w.Packet(st.queue[i])
		}
		w.Bool(st.cur != nil)
		if st.cur != nil {
			w.U64(st.cur.ID)
			w.Int(st.idx)
			w.Int(st.vc)
		}
	}
	w.Int(s.rr)
	w.U64(s.injected)
	w.U64(s.creditStalls)
	router.SaveView(w, s.view)
}

// loadNI restores one network interface.
func loadNI(r *snap.Reader, s *ni, t *pktTable) error {
	if err := r.Section("ni"); err != nil {
		return err
	}
	if cnt := r.Int(); cnt != len(s.streams) {
		if r.Err() != nil {
			return r.Err()
		}
		return fmt.Errorf("network: snapshot NI has %d streams, configuration has %d", cnt, len(s.streams))
	}
	for si := range s.streams {
		st := &s.streams[si]
		cnt := r.Int()
		if err := r.Err(); err != nil {
			return err
		}
		if cnt < 0 {
			return fmt.Errorf("network: negative NI queue length %d in snapshot", cnt)
		}
		st.queue = st.queue[:0]
		st.qhead = 0
		for i := 0; i < cnt; i++ {
			p, err := r.Packet(t.packet)
			if err != nil {
				return err
			}
			if p == nil {
				return fmt.Errorf("network: nil packet reference in an NI queue")
			}
			st.queue = append(st.queue, p)
		}
		st.cur = nil
		if r.Bool() {
			id := r.U64()
			idx := r.Int()
			vc := r.Int()
			if err := r.Err(); err != nil {
				return err
			}
			cur, err := t.materialized(id)
			if err != nil {
				return err
			}
			if idx < 0 || idx >= cur.Size {
				return fmt.Errorf("network: NI injection cursor %d outside packet %d (%d flits)", idx, id, cur.Size)
			}
			st.cur = cur
			st.idx = idx
			st.vc = vc
		}
	}
	s.rr = r.Int()
	s.injected = r.U64()
	s.creditStalls = r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if s.rr < 0 || s.rr >= len(s.streams) {
		return fmt.Errorf("network: NI round-robin pointer %d outside %d streams", s.rr, len(s.streams))
	}
	return router.LoadView(r, s.view)
}

// saveObs writes the observability layer's sampled gauges, staged
// events and tracer ring. Counter values are not part of it: their
// owners serialize them and loadObs re-stores the view.
func (n *Network) saveObs(w *snap.Writer) {
	w.Section("obs")
	w.Bool(n.obs != nil)
	if n.obs == nil {
		return
	}
	o := n.obs
	//vichar:nolint probe-guard the obs layer wires reg and every recorder at construction; nil obs already returned above
	o.reg.SaveState(w)
	w.Int(len(o.recs))
	for _, rec := range o.recs {
		//vichar:nolint probe-guard recorders are never nil inside a wired obs layer
		rec.SaveState(w)
	}
	w.Bool(o.tracer != nil)
	if o.tracer != nil {
		o.tracer.SaveState(w)
	}
}

// loadObs restores the observability layer. It runs last in
// LoadState, so the closing store pass reads fully restored counters.
func (n *Network) loadObs(r *snap.Reader) error {
	if err := r.Section("obs"); err != nil {
		return err
	}
	has := r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	if has != (n.obs != nil) {
		return fmt.Errorf("network: snapshot observability present=%v, configuration has %v", has, n.obs != nil)
	}
	if n.obs == nil {
		return nil
	}
	o := n.obs
	//vichar:nolint probe-guard the obs layer wires reg and every recorder at construction; nil obs already returned above
	if err := o.reg.LoadState(r); err != nil {
		return err
	}
	if cnt := r.Int(); cnt != len(o.recs) {
		if r.Err() != nil {
			return r.Err()
		}
		return fmt.Errorf("network: snapshot has %d recorders, configuration has %d", cnt, len(o.recs))
	}
	for _, rec := range o.recs {
		//vichar:nolint probe-guard recorders are never nil inside a wired obs layer
		if err := rec.LoadState(r); err != nil {
			return err
		}
	}
	hasTracer := r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	if hasTracer != (o.tracer != nil) {
		return fmt.Errorf("network: snapshot tracer present=%v, configuration has %v", hasTracer, o.tracer != nil)
	}
	if o.tracer != nil {
		if err := o.tracer.LoadState(r); err != nil {
			return err
		}
	}
	//vichar:nolint probe-guard the obs layer wires reg at construction; nil obs already returned above
	o.reg.Store(n.storeFn)
	return nil
}

// saveTraceState writes the remaining replay schedule and the
// recording state.
func (n *Network) saveTraceState(w *snap.Writer) {
	w.Section("tracestate")
	rest := n.schedule[n.scheduleIdx:]
	w.Int(len(rest))
	for _, e := range rest {
		w.I64(e.Cycle)
		w.Int(e.Src)
		w.Int(e.Dst)
		w.Int(e.Size)
	}
	w.Bool(n.recording)
	w.Int(len(n.recorded))
	for _, e := range n.recorded {
		w.I64(e.Cycle)
		w.Int(e.Src)
		w.Int(e.Dst)
		w.Int(e.Size)
	}
}

// loadTraceState restores the replay schedule and recording state.
func (n *Network) loadTraceState(r *snap.Reader) error {
	if err := r.Section("tracestate"); err != nil {
		return err
	}
	cnt := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if cnt < 0 {
		return fmt.Errorf("network: negative schedule length %d in snapshot", cnt)
	}
	n.schedule = n.schedule[:0]
	n.scheduleIdx = 0
	for i := 0; i < cnt; i++ {
		n.schedule = append(n.schedule, trace.Entry{Cycle: r.I64(), Src: r.Int(), Dst: r.Int(), Size: r.Int()})
		if r.Err() != nil {
			return r.Err()
		}
	}
	n.recording = r.Bool()
	cnt = r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if cnt < 0 {
		return fmt.Errorf("network: negative recorded-trace length %d in snapshot", cnt)
	}
	n.recorded = n.recorded[:0]
	for i := 0; i < cnt; i++ {
		n.recorded = append(n.recorded, trace.Entry{Cycle: r.I64(), Src: r.Int(), Dst: r.Int(), Size: r.Int()})
		if r.Err() != nil {
			return r.Err()
		}
	}
	return r.Err()
}

// SaveState writes the network's complete mutable state. It must be
// called between Steps; mid-cycle staging (pending ejections, wake
// buffers) would be lost, so SaveState refuses if any is live.
func (n *Network) SaveState(w *snap.Writer) error {
	for id := range n.pendingEject {
		if len(n.pendingEject[id]) != 0 {
			return fmt.Errorf("network: snapshot mid-cycle: node %d has staged ejections", id)
		}
	}
	for id := range n.wakes {
		if len(n.wakes[id]) != 0 {
			return fmt.Errorf("network: snapshot mid-cycle: router %d has unmerged wakes", id)
		}
	}
	w.Section("network")
	w.I64(n.now)
	w.U64(n.nextID)
	w.I64(n.created)
	w.U64(n.ejectedFlits)

	pkts := n.collectPackets()
	w.Section("packets")
	w.Int(len(pkts))
	for _, p := range pkts {
		savePacket(w, p)
	}

	for _, r := range n.routers {
		r.SaveState(w)
	}
	for _, s := range n.nis {
		saveNI(w, s)
	}

	w.Section("links")
	for id := range n.routers {
		for i := n.flitOff[id]; i < n.flitOff[id+1]; i++ {
			n.saveFlitLink(w, &n.flitSlab[i])
		}
		for i := n.creditOff[id]; i < n.creditOff[id+1]; i++ {
			n.saveCreditLink(w, &n.creditSlab[i])
		}
	}

	w.Section("linkstats")
	w.U64s(n.linkFlits)
	w.Bool(n.linkStartSnap != nil)
	if n.linkStartSnap != nil {
		w.U64s(n.linkStartSnap)
	}
	w.Bool(n.linkEndSnap != nil)
	if n.linkEndSnap != nil {
		w.U64s(n.linkEndSnap)
	}
	n.startSnap.SaveState(w)
	n.endSnap.SaveState(w)
	w.Bool(n.haveStart)
	w.Bool(n.haveEnd)

	w.Section("worklist")
	w.Bools(n.computeActive)
	w.Bools(n.deliverActive)
	w.Int(len(n.wlStats))
	for i := range n.wlStats {
		w.U64(n.wlStats[i].ComputeTicked)
		w.U64(n.wlStats[i].ComputeSkipped)
		w.U64(n.wlStats[i].DeliverTicked)
		w.U64(n.wlStats[i].DeliverSkipped)
	}

	n.saveTraceState(w)
	n.collector.SaveState(w)
	n.gen.SaveState(w)
	if n.txn != nil {
		n.txn.SaveState(w)
	}
	n.saveObs(w)
	return nil
}

// LoadState restores state saved by SaveState into a network freshly
// constructed from the same configuration.
func (n *Network) LoadState(r *snap.Reader) error {
	if err := r.Section("network"); err != nil {
		return err
	}
	n.now = r.I64()
	n.nextID = r.U64()
	n.created = r.I64()
	n.ejectedFlits = r.U64()

	if err := r.Section("packets"); err != nil {
		return err
	}
	cnt := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if cnt < 0 {
		return fmt.Errorf("network: negative packet-table length %d in snapshot", cnt)
	}
	t := &pktTable{pkts: make(map[uint64]*flit.Packet, cnt)}
	for i := 0; i < cnt; i++ {
		p := loadPacket(r)
		if r.Err() != nil {
			return r.Err()
		}
		if p.Size <= 0 {
			return fmt.Errorf("network: packet %d has non-positive size %d in snapshot", p.ID, p.Size)
		}
		if p.NextSeq < 0 || p.NextSeq >= p.Size {
			return fmt.Errorf("network: packet %d has ejection cursor %d of %d flits in snapshot", p.ID, p.NextSeq, p.Size)
		}
		if _, dup := t.pkts[p.ID]; dup {
			return fmt.Errorf("network: duplicate packet %d in snapshot table", p.ID)
		}
		t.pkts[p.ID] = p
	}

	for _, rt := range n.routers {
		if err := rt.LoadState(r, t.flit, t.packet); err != nil {
			return err
		}
	}
	for _, s := range n.nis {
		if err := loadNI(r, s, t); err != nil {
			return err
		}
	}

	if err := r.Section("links"); err != nil {
		return err
	}
	for id := range n.routers {
		for i := n.flitOff[id]; i < n.flitOff[id+1]; i++ {
			if err := n.loadFlitLink(r, &n.flitSlab[i], t.flit); err != nil {
				return err
			}
		}
		for i := n.creditOff[id]; i < n.creditOff[id+1]; i++ {
			if err := n.loadCreditLink(r, &n.creditSlab[i]); err != nil {
				return err
			}
		}
	}

	if err := r.Section("linkstats"); err != nil {
		return err
	}
	r.U64sInto(n.linkFlits)
	n.linkStartSnap = nil
	if r.Bool() {
		s := make([]uint64, len(n.linkFlits))
		r.U64sInto(s)
		n.linkStartSnap = s
	}
	n.linkEndSnap = nil
	if r.Bool() {
		s := make([]uint64, len(n.linkFlits))
		r.U64sInto(s)
		n.linkEndSnap = s
	}
	if err := n.startSnap.LoadState(r); err != nil {
		return err
	}
	if err := n.endSnap.LoadState(r); err != nil {
		return err
	}
	n.haveStart = r.Bool()
	n.haveEnd = r.Bool()

	if err := r.Section("worklist"); err != nil {
		return err
	}
	r.BoolsInto(n.computeActive)
	r.BoolsInto(n.deliverActive)
	if cnt := r.Int(); cnt != len(n.wlStats) {
		if r.Err() != nil {
			return r.Err()
		}
		return fmt.Errorf("network: snapshot has %d worklist shards, configuration has %d", cnt, len(n.wlStats))
	}
	for i := range n.wlStats {
		n.wlStats[i].ComputeTicked = r.U64()
		n.wlStats[i].ComputeSkipped = r.U64()
		n.wlStats[i].DeliverTicked = r.U64()
		n.wlStats[i].DeliverSkipped = r.U64()
	}

	if err := n.loadTraceState(r); err != nil {
		return err
	}
	if err := n.collector.LoadState(r); err != nil {
		return err
	}
	if err := n.gen.LoadState(r); err != nil {
		return err
	}
	if n.txn != nil {
		if err := n.txn.LoadState(r); err != nil {
			return err
		}
	}
	if err := n.loadObs(r); err != nil {
		return err
	}
	return r.Err()
}
