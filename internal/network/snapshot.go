package network

import (
	"fmt"
	"math"

	"vichar/internal/config"
	"vichar/internal/flit"
	"vichar/internal/snap"
	"vichar/internal/trace"
)

// This file is the network-level checkpoint walk: State names the
// complete mutable simulation state once, for a saving codec to read
// and for a loading one to fill into a network freshly constructed
// from the same configuration (construct-then-load: New rebuilds all
// wiring, arenas and slabs; the walk moves only values, in place
// wherever live pointers alias the backing arrays).
//
// Packets are serialized exactly once, in a table sorted by ID; every
// other occurrence of a packet or flit travels as a reference that
// resolves against the table at load time (snap.Codec.PacketTable). A
// packet's flits are rebuilt in the packet record's own storage, so
// they keep their shared-identity structure, and each container
// applies the mutable (VC, ArrivedAt) fields of exactly the flits it
// holds.
//
// Snapshots are legal only between Steps: ejection staging and wake
// buffers are empty there, and router per-tick scratch is dead. State
// verifies the former and refuses otherwise.

// packetState walks one packet's record. A packet's flit storage is
// sized by Size at injection or at load, so the body bytes left bound
// it. EjectedAt is not walked: every packet a snapshot references has
// its tail still to eject, so it is zero.
func (n *Network) packetState(c *snap.Codec, p *flit.Packet) {
	c.U64(&p.ID)
	c.Int(&p.Src)
	c.Int(&p.Dst)
	c.Int(&p.Size)
	c.I64(&p.CreatedAt)
	c.I64(&p.InjectedAt)
	c.Bool(&p.Escaped)
	c.U8(&p.Class)
	c.U8(&p.Kind)
	c.U64(&p.Req)
	c.Int(&p.NextSeq)
	c.Range(p.Src, 0, n.mesh.Nodes()-1, "network: packet source node")
	c.Range(p.Dst, 0, n.mesh.Nodes()-1, "network: packet destination node")
	c.Range(p.Size, 1, c.Room(), "network: packet size (flits, at most the bytes left)")
	c.Range(p.NextSeq, 0, p.Size-1, "network: packet ejection cursor")
	c.Range(int(p.Class), 0, n.cfg.VCClasses()-1, "network: packet VC class")
	if p.EjectedAt != 0 {
		c.Failf("network: snapshot references packet %d, which has ejected", p.ID)
	}
}

// state walks the ring's payloads, oldest first, through elem. Loading
// rewinds the ring to slot zero (layout, not state).
func (r *ring[T]) state(c *snap.Codec, what string, elem func(*T)) {
	cnt := c.Len(r.len(), len(r.buf), what)
	if c.Loading() {
		r.head, r.tail = 0, uint32(cnt)
	}
	for i := 0; i < cnt; i++ {
		elem(r.at(i))
	}
}

// state walks one flit link's in-flight payloads and fault state at
// cycle now. A payload is due within the link's delay, and names a VC
// of the input port it feeds (an ejection link feeds none).
func (l *flitLink) state(c *snap.Codec, now int64) {
	vcs := math.MaxInt
	if l.dst != nil {
		vcs = l.dst.InputBuffer(l.inPort).MaxVCs()
	}
	l.q.state(c, "network: link occupancy", func(e *timedFlit) {
		c.Flit(&e.f)
		c.I64(&e.at)
		if e.f == nil || e.f.VC < 0 || e.f.VC >= vcs || e.at > now+l.delay || (l.eject != nil && e.f.Pkt.Dst != l.owner) {
			c.Failf("network: snapshot link payload is nil, on a VC outside %d, due at %d, beyond cycle %d + delay %d, or ejecting at the wrong node", vcs, e.at, now, l.delay)
		}
	})
	l.faults.State(c, vcs)
}

// state walks one credit link's in-flight credits at cycle now, each
// for one of the vcs channels. Their due cycle is not walked: a credit
// is sent in one cycle and delivered in the next (CreditDelay is 1), so
// between Steps every credit in flight is due at now + delay.
func (l *creditLink) state(c *snap.Codec, now int64, vcs int) {
	l.q.state(c, "network: credit-link occupancy", func(e *timedCredit) {
		c.Int(&e.c.VC)
		c.Bool(&e.c.ReleaseVC)
		if c.Loading() {
			e.at = now + l.delay
		}
		if e.c.VC < 0 || e.c.VC >= vcs || e.at != now+l.delay {
			c.Failf("network: snapshot credit is for VC %d of %d or due at %d, not cycle %d + delay %d", e.c.VC, vcs, e.at, now, l.delay)
		}
	})
}

// state walks one network interface's per-class source queues,
// mid-injection cursors, round-robin and allocation pointers and credit
// view.
func (s *ni) state(c *snap.Codec, vcs int) {
	c.Section("ni")
	c.Expect(len(s.streams), "network: NI streams")
	for si := range s.streams {
		st := &s.streams[si]
		queued := st.queue[st.qhead:]
		snap.Seq(c, &queued, math.MaxInt, "network: NI queue length", func(p **flit.Packet) {
			c.Packet(p)
			c.Check(*p != nil, "network: nil packet reference in an NI queue")
		})
		if c.Loading() {
			st.queue, st.qhead = queued, 0
		}
		c.Packet(&st.cur)
		if st.cur != nil {
			c.Injecting(st.cur, &st.idx)
			c.Int(&st.vc)
			c.Range(st.vc, 0, vcs-1, "network: NI injection VC")
		}
	}
	c.Int(&s.rr)
	c.U64(&s.injected)
	c.U64(&s.creditStalls)
	c.Range(s.rr, 0, len(s.streams)-1, "network: NI round-robin pointer")
	c.Int(&s.alloc)
	c.Range(s.alloc, 0, vcs-1, "network: NI allocation pointer")
	s.view.State(c)
	for si := range s.streams {
		if st := &s.streams[si]; st.cur != nil && c.Err() == nil && !s.view.Holds(st.vc) {
			c.Failf("network: snapshot NI %d injects on VC %d, which its view has not granted", s.node, st.vc)
		}
	}
}

// sending fills pkts, indexed by injection VC, with the packet each
// stream is part-way through injecting there (nil where none is).
func (s *ni) sending(pkts []*flit.Packet) {
	clear(pkts)
	for si := range s.streams {
		if st := &s.streams[si]; st.cur != nil {
			pkts[st.vc] = st.cur
		}
	}
}

// obsState walks the observability layer's sampled gauges, staged
// events and tracer ring. Counter values are not part of it: their
// owners serialize them, and a load ends by re-storing the view. It
// runs last in State, so that store pass reads fully restored
// counters.
func (n *Network) obsState(c *snap.Codec) {
	c.Section("obs")
	o := n.obs
	if !c.Present(o != nil, "network: observability layer") {
		return
	}
	o.reg.State(c)
	c.Expect(len(o.recs), "network: recorders")
	for _, rec := range o.recs {
		rec.State(c)
	}
	c.Present(o.tracer != nil, "network: tracer")
	if o.tracer != nil {
		o.tracer.State(c)
	}
	if c.Loading() {
		o.reg.Store(n.storeFn)
	}
}

// traceState walks the remaining replay schedule and the recording
// state.
func (n *Network) traceState(c *snap.Codec) {
	entry := func(e *trace.Entry) {
		c.I64(&e.Cycle)
		c.Int(&e.Src)
		c.Int(&e.Dst)
		c.Int(&e.Size)
	}
	c.Section("tracestate")
	rest := n.schedule[n.scheduleIdx:]
	snap.Seq(c, &rest, math.MaxInt, "network: schedule length", entry)
	if c.Loading() {
		n.schedule, n.scheduleIdx = rest, 0
	}
	c.Bool(&n.recording)
	snap.Seq(c, &n.recorded, math.MaxInt, "network: recorded-trace length", entry)
}

// windowLoads walks one optional per-link snapshot bracketing the
// measurement window: absent until its edge of the window passes.
func (n *Network) windowLoads(c *snap.Codec, s *[]uint64) {
	has := *s != nil
	c.Bool(&has)
	if c.Loading() {
		*s = nil
		if has {
			*s = make([]uint64, len(n.linkFlits))
		}
	}
	if has {
		c.U64s(*s)
	}
}

// State walks the network's complete mutable state. Saving must happen
// between Steps; mid-cycle staging (a shard's staged ejections or
// unmerged wakes) would be lost, so the walk refuses if any is live.
// Loading needs a network freshly constructed from the same
// configuration, and ends by auditing what it loaded.
func (n *Network) State(c *snap.Codec) {
	for s := range n.lists {
		c.Range(len(n.lists[s].ejects), 0, 0, "network: snapshot mid-cycle: staged ejections")
		c.Range(len(n.lists[s].wakes), 0, 0, "network: snapshot mid-cycle: unmerged wakes")
	}
	c.Section("network")
	c.I64(&n.now)
	c.Check(n.now >= 0, "network: snapshot cycle %d is negative", n.now)
	c.U64(&n.nextID)
	c.I64(&n.created)
	c.U64(&n.ejectedFlits)

	c.Section("packets")
	c.PacketTable(func(p *flit.Packet) { n.packetState(c, p) })

	for _, r := range n.routers {
		r.State(c)
	}
	for _, s := range n.nis {
		s.state(c, n.cfg.MaxVCs())
	}

	c.Section("links")
	for id := range n.routers {
		for i := n.flitOff[id]; i < n.flitOff[id+1]; i++ {
			n.flitSlab[i].state(c, n.now)
		}
		for i := n.creditOff[id]; i < n.creditOff[id+1]; i++ {
			n.creditSlab[i].state(c, n.now, n.cfg.MaxVCs())
		}
	}

	c.Section("linkstats")
	c.U64s(n.linkFlits)
	n.windowLoads(c, &n.linkStartSnap)
	n.windowLoads(c, &n.linkEndSnap)
	n.startSnap.State(c)
	n.endSnap.State(c)
	c.Bool(&n.haveStart)
	c.Bool(&n.haveEnd)

	c.Section("worklist")
	c.Bools(n.computeActive)
	// The deliver worklist travels as one flag per router, "some link
	// may carry payloads"; loading wakes every plan link of a flagged
	// router, which ticks a drained link once for nothing.
	deliverActive := make([]bool, len(n.deliverLinks))
	for id, links := range n.deliverLinks {
		deliverActive[id] = links != 0
	}
	c.Bools(deliverActive)
	if c.Loading() {
		for id, active := range deliverActive {
			n.deliverLinks[id] = 0
			if active {
				n.deliverLinks[id] = n.planLinks(id)
			}
		}
	}
	n.worklistState(c)

	n.traceState(c)
	n.collector.State(c)
	n.gen.State(c, n.now)
	if n.txn != nil {
		n.txn.State(c, n.now)
	}
	n.obsState(c)
	if c.Loading() && c.Err() == nil {
		if err := n.auditLoaded(); err != nil {
			c.Failf("network: snapshot state is inconsistent: %v", err)
		}
	}
}

// worklistState walks the worklist tallies summed over shards, so a
// blob does not depend on the shard count that cut it (Workers 0 is
// one shard per processor); a load puts the sums in the first shard's
// slot. Every router is ticked or skipped in both phases of every
// cycle, which ties the cycle counter — all that bounds the random
// streams' replay — to the sums.
func (n *Network) worklistState(c *snap.Codec) {
	if n.now > math.MaxInt64/int64(len(n.routers)) {
		c.Failf("network: snapshot cycle %d overflows the worklist tallies of %d routers", n.now, len(n.routers))
		return
	}
	want := uint64(n.now) * uint64(len(n.routers))
	w := n.WorklistStats()
	c.U64(&w.ComputeTicked)
	c.U64(&w.ComputeSkipped)
	c.U64(&w.DeliverTicked)
	c.U64(&w.DeliverSkipped)
	if w.ComputeTicked > want || w.ComputeSkipped != want-w.ComputeTicked || w.DeliverTicked > want || w.DeliverSkipped != want-w.DeliverTicked {
		c.Failf("network: snapshot worklist tallies have not counted %d routers over %d cycles", len(n.routers), n.now)
	}
	if c.Loading() && c.Err() == nil {
		clear(n.wlStats)
		n.wlStats[0].WorklistStats = w
	}
}

// auditLoaded runs the per-cycle invariant auditors (step.go) once,
// serially, over freshly loaded state: a snapshot whose fields each
// pass their range check can still describe flow-control state no run
// produces — a credit that was never sent, a scan mask naming an empty
// VC — and must be refused here rather than panic in a later Step.
//
// Two checks go beyond the per-cycle audit, which can assume its own
// previous cycle: credit conservation must hold per VC, not only per
// link (checkLinkVCs), and a sleeping worklist entry must really have
// nothing to do — a link never ticked again fills its ring.
func (n *Network) auditLoaded() error {
	for shard := 0; shard < n.shardCount; shard++ {
		if n.auditLinksShard(shard); n.auditErrs[shard] != nil {
			return n.auditErrs[shard]
		}
	}
	for shard := 0; shard < n.shardCount; shard++ {
		if n.auditRoutersShard(shard); n.auditErrs[shard] != nil {
			return n.auditErrs[shard]
		}
	}
	holders := make([]*flit.Packet, n.cfg.MaxVCs())
	for i := range n.auditedLinks {
		if err := n.checkLinkVCs(&n.auditedLinks[i], holders); err != nil {
			return err
		}
	}
	for id, r := range n.routers {
		pending := uint32(0)
		for i := n.flitOff[id]; i < n.flitOff[id+1]; i++ {
			if n.flitSlab[i].pending() {
				pending |= 1 << (n.flitSlab[i].tag & 31)
			}
		}
		for i := n.creditOff[id]; i < n.creditOff[id+1]; i++ {
			if n.creditSlab[i].q.len() > 0 {
				pending |= 1 << (n.creditSlab[i].tag & 31)
			}
		}
		if pending&^n.deliverLinks[id] != 0 {
			return fmt.Errorf("router %d sleeps in the deliver worklist with payloads on its links", id)
		}
		if !n.computeActive[id] && !(n.fplan == nil && n.nis[id].idle() && r.Quiescent()) {
			return fmt.Errorf("router %d sleeps in the compute worklist with work to do", id)
		}
	}
	return nil
}

// checkLinkVCs is link credit conservation (audit.CheckLink) VC by VC:
// what the upstream view has outstanding on a VC is in flight, held
// for retransmission, buffered downstream or on its way back as
// credit. Under ViChaR a VC carries one packet at a time and its token
// stays out until the tail's credit is back, so a view "holds" a VC
// that is merely draining: there a credit that releases its VC must be
// the last thing the link carries for it, and a VC some upstream packet
// is still sending on (holders, scratch of MaxVCs entries) carries that
// packet's flits only and has no release on its way back.
func (n *Network) checkLinkVCs(al *auditedLink, holders []*flit.Packet) error {
	vichar := n.cfg.Arch == config.ViChaR
	if up := al.cl.dst; up != nil {
		up.Granted(al.cl.outPort, holders)
	} else {
		n.nis[al.fl.owner].sending(holders)
	}
	held := al.fl.faults.HeldFlit()
	for vc, holder := range holders {
		// The oldest flit on the VC; behind it the buffer's own load
		// check (flit.Follows) admits only the same packet's next flits.
		foreign := func(f *flit.Flit) bool { return vichar && holder != nil && f != nil && f.Pkt != holder }
		flits, mixed := al.buf.Len(vc), foreign(al.buf.Front(vc, math.MaxInt64))
		if held != nil && held.VC == vc {
			flits++
			mixed = mixed || foreign(held)
		}
		for i := 0; i < al.fl.q.len(); i++ {
			if f := al.fl.q.at(i).f; f.VC == vc {
				flits++
				mixed = mixed || foreign(f)
			}
		}
		credits, released := 0, false
		for i := 0; i < al.cl.q.len(); i++ {
			if cr := al.cl.q.at(i).c; cr.VC == vc {
				credits++
				if released || (cr.ReleaseVC && flits > 0 && vichar) {
					return fmt.Errorf("link %s: VC %d is released by a credit that is not the last payload on it", al.name, vc)
				}
				released = cr.ReleaseVC && vichar
			}
		}
		if mixed || (released && holder != nil) {
			return fmt.Errorf("link %s: VC %d is held upstream by packet %d but is draining another", al.name, vc, holder.ID)
		}
		if out := al.view.OutstandingOn(vc); out != flits+credits {
			return fmt.Errorf("link %s: view has %d flits outstanding on VC %d, %d are in flight or buffered and %d credited back", al.name, out, vc, flits, credits)
		}
	}
	return nil
}
