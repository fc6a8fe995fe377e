package network

import (
	"fmt"
	"math/bits"

	"vichar/internal/audit"
	"vichar/internal/flit"
	"vichar/internal/metrics"
	"vichar/internal/stats"
)

// eject consumes a flit at node's processing element, enforcing the
// end-to-end delivery invariants: flits of a packet arrive exactly
// once, in sequence order, at the right node.
func (n *Network) eject(node int, f *flit.Flit, now int64) {
	if f.Pkt.Dst != node {
		//vichar:invariant the routing function must deliver every flit to its packet destination
		panic(fmt.Sprintf("network: flit %s ejected at wrong node %d", f, node))
	}
	p := f.Pkt
	if f.Seq != p.NextSeq {
		//vichar:invariant wormhole switching on a fixed VC cannot reorder flits of one packet
		panic(fmt.Sprintf("network: flit %s ejected out of order (want seq %d)", f, p.NextSeq))
	}
	p.NextSeq++
	n.ejectedFlits++
	if n.rec != nil {
		n.rec.StageEvent(metrics.Event{
			Cycle: now, Kind: metrics.EvEject, Packet: f.Pkt.ID, Flit: f.Seq,
			Node: node, Port: -1, VC: f.VC,
		})
	}
	if !f.IsTail() {
		return
	}
	if f.Seq != p.Size-1 {
		//vichar:invariant a tail at the wrong sequence number means flits were lost or duplicated in flight
		panic(fmt.Sprintf("network: tail %s at seq %d of %d", f, f.Seq, p.Size))
	}
	p.EjectedAt = now
	was := n.collector.Measuring()
	n.collector.PacketEjected(p, now)
	// A window edge: its counter snapshot is completed after the batch
	// (Step, windowSnapshot).
	if !was && n.collector.Measuring() && !n.haveStart {
		n.snapStart, n.haveStart = true, true
	}
	if was && !n.collector.Measuring() && !n.haveEnd {
		n.snapEnd, n.haveEnd = true, true
	}
	if n.txn != nil {
		// Serial commit: requests enter their responder's service
		// queue, responses retire their transaction.
		n.txn.OnEject(p, now, was)
	}
	// The record's trip is over: the collector and the transaction
	// hooks above were its last readers.
	if p.Pooled {
		//vichar:alloc the free list grows by doubling to the peak number of packets in flight, then is reused
		n.free = append(n.free, p)
	}
}

// totalCounters sums activity across routers plus network-level link
// traversals and fault tallies.
func (n *Network) totalCounters() stats.Counters {
	var c stats.Counters
	for _, r := range n.routers {
		c.Add(r.Counters())
	}
	n.addLinkCounters(&c)
	return c
}

// addLinkCounters adds the link-level counters to c. They are kept per
// link (each link is ticked by exactly one shard), so the network-wide
// total is their sum.
func (n *Network) addLinkCounters(c *stats.Counters) {
	for _, f := range n.linkFlits {
		c.LinkTraversals += f
	}
	for i := range n.faultLinks {
		fs := &n.faultLinks[i]
		c.FlitDrops += fs.Drops
		c.FlitCorrupts += fs.Corrupts
		c.Retransmits += fs.Retransmits
	}
}

// windowSnapshot completes the counter snapshot of a window edge
// committed this cycle: the routers' counters the batch tallied between
// their deliver and compute, plus the link counters, which only deliver
// changes. Both edges in one cycle take the same value.
func (n *Network) windowSnapshot() {
	var c stats.Counters
	for s := range n.edgeTally {
		c.Add(n.edgeTally[s])
		n.edgeTally[s] = stats.Counters{}
	}
	n.addLinkCounters(&c)
	if n.snapStart {
		n.startSnap = c
		//vichar:alloc measurement-window snapshot, taken at most once per run
		n.linkStartSnap = append([]uint64(nil), n.linkFlits...)
	}
	if n.snapEnd {
		n.endSnap = c
		//vichar:alloc measurement-window snapshot, taken at most once per run
		n.linkEndSnap = append([]uint64(nil), n.linkFlits...)
	}
	n.snapStart, n.snapEnd = false, false
}

// Step advances the simulation by exactly one cycle: one sharded batch
// between two pieces of serial work (DESIGN.md §10.1).
//
//  1. Top of the cycle (serial): the ejection flits due now commit in
//     ascending node order — the only work that mutates the stats
//     collector, the end-to-end sequence check and the window edges —
//     then new traffic is generated, scheduled trace entries injected
//     and the transaction layer ticked.
//  2. The batch (sharded by router): every router, in ascending id
//     within its shard, delivers the payloads due on its plan links
//     into its input buffers and credit views — its ejection link
//     stages the flits due next cycle instead — then its network
//     interface and router evaluate their pipelines. The only
//     cross-router effects are sends on links the router writes, and
//     nothing sent is due before the next cycle.
//  3. After the barrier (serial): a window edge's counter snapshot
//     completes, the shards' wakes merge, and the auditor and the
//     sampler run.
//
// Shards own disjoint state and the serial work runs in a fixed index
// order, so the cycle's outcome is bit-identical for any worker count.
func (n *Network) Step() {
	n.now++
	now := n.now
	n.commitEjections(now)
	if n.cfg.InjectionRate > 0 {
		n.gen.Tick(now, n.injectFn)
	}
	for n.scheduleIdx < len(n.schedule) && n.schedule[n.scheduleIdx].Cycle <= now {
		e := n.schedule[n.scheduleIdx]
		n.scheduleIdx++
		n.SendTxnPacket(e.Src, e.Dst, e.Size, 0, 0, 0)
	}
	if n.txn != nil {
		// Serial like the generator: responder completions inject
		// responses and requesters draw new requests, both in
		// ascending node order off per-node streams.
		n.txn.Tick(now)
	}
	n.runSharded(n.stepFn)
	if n.snapStart || n.snapEnd {
		n.windowSnapshot()
	}
	// Merge the per-shard wake lists: sends that made a link non-empty
	// set its bit in its owner's deliver mask. A pure OR over an
	// order-free set, run serially after the barrier, so the result is
	// independent of worker scheduling.
	for s := range n.lists {
		l := &n.lists[s]
		for _, tag := range l.wakes {
			n.deliverLinks[tag>>5] |= 1 << (tag & 31)
		}
		l.wakes = l.wakes[:0]
	}
	if n.cfg.Audit {
		n.audit(now)
	}
	if now%n.cfg.SampleEvery == 0 {
		n.sample(now)
		n.flushObs()
	}
}

// commitEjections ejects the flits due now, which the previous cycle's
// batch staged. Shards own ascending contiguous node ranges and stage
// in node order, so shard order is ascending node order.
func (n *Network) commitEjections(now int64) {
	for s := range n.lists {
		l := &n.lists[s]
		for i, e := range l.ejects {
			l.ejects[i] = ejection{}
			n.eject(e.node, e.f, now)
		}
		l.ejects = l.ejects[:0]
	}
}

// stepShard is the batch for one shard: each of the shard's routers,
// in ascending id, delivers its plan links and then computes.
//
// Delivery visits the set bits of the router's deliverLinks in
// ascending order — its flit links, then its credit links, each in
// slab order (flitOff/creditOff) — so delivery order is the order of
// a sweep over every link. Only a flit entering an input buffer wakes
// the router: a quiescent router's tick with an idle NI is the
// identity (Router.Quiescent), whatever credits or ejections land.
//
// A node may sleep only when a tick provably does nothing: the
// router's masks are empty (Quiescent also rules out attached fault
// state), the NI neither holds nor queues a packet, and no fault plan
// is compiled — fault schedules mutate per-cycle state regardless of
// traffic, so faulted runs never sleep.
//
// Neighbouring shards run on different cores: the worklist tallies are
// local, flushed once into the shard's own line, and the per-router
// masks and flags (a line of them spans shards) are stored only when
// the value changes. Reads n.now itself (set before the barrier) so
// the bound closure carries no per-cycle state.
func (n *Network) stepShard(shard int) {
	now := n.now
	edge := n.snapStart || n.snapEnd
	lo, hi := n.shardBounds(shard)
	var delivered, computed uint64
	for id := lo; id < hi; id++ {
		if links := n.deliverLinks[id]; links != 0 {
			delivered++
			woke := false
			for m := links; m != 0; m &= m - 1 {
				b := bits.TrailingZeros32(m)
				var got, pending bool
				if b < creditBit0 {
					got, pending = n.flitSlab[int(n.flitOff[id])+b].tick(now)
					woke = woke || got
				} else {
					pending = n.creditSlab[int(n.creditOff[id])+b-creditBit0].tick(now)
				}
				if !pending {
					links &^= 1 << b
				}
			}
			if links != n.deliverLinks[id] {
				n.deliverLinks[id] = links
			}
			if woke && !n.computeActive[id] {
				n.computeActive[id] = true
			}
		}
		if edge {
			n.edgeTally[shard].Add(n.routers[id].Counters())
		}
		if !n.computeActive[id] {
			continue
		}
		computed++
		s := n.nis[id]
		s.tick(now)
		n.routers[id].Tick(now)
		if n.fplan == nil && s.idle() && n.routers[id].Quiescent() {
			n.computeActive[id] = false
		}
	}
	t := &n.wlStats[shard]
	t.DeliverTicked += delivered
	t.DeliverSkipped += uint64(hi-lo) - delivered
	t.ComputeTicked += computed
	t.ComputeSkipped += uint64(hi-lo) - computed
}

// audit runs the per-cycle invariant auditor (internal/audit) over
// every credit-carrying link and every unified buffer. All router and
// link mutation for the cycle has completed behind the batch barrier,
// so the checks are pure reads over quiescent state and are
// sharded across the same lanes as the kernel; per-shard first
// violations are merged in index order, so the reported violation is
// the same one the serial kernel would find. Any violation is a
// simulator bug and panics.
func (n *Network) audit(now int64) {
	n.runSharded(n.auditLinksFn)
	for _, err := range n.auditErrs {
		if err != nil {
			//vichar:invariant a conservation imbalance means flow-control state corrupted mid-run; continuing would corrupt results
			panic(fmt.Sprintf("network: cycle %d: %v", now, err))
		}
	}
	n.runSharded(n.auditRoutersFn)
	for _, err := range n.auditErrs {
		if err != nil {
			//vichar:invariant a buffer or VC bookkeeping divergence means buffered flits can be lost or duplicated; continuing would corrupt results
			panic(fmt.Sprintf("network: cycle %d: %v", now, err))
		}
	}
}

// auditLinksShard checks credit conservation, then declared-fault
// conservation, over the shard's chunk of audited links, writing only
// its own auditErrs slot. A link's name is built only for the report
// of a violation: the failed check is repeated with it.
func (n *Network) auditLinksShard(shard int) {
	n.auditErrs[shard] = nil
	lo, hi := chunkBounds(len(n.auditedLinks), n.shardCount, shard)
	links := n.auditedLinks[lo:hi]
	for i := range links {
		al := &links[i]
		s := audit.LinkState{
			Outstanding:        al.view.OutstandingFlits(),
			InFlightFlits:      al.fl.q.len(),
			DownstreamOccupied: al.buf.Occupied(),
			InFlightCredits:    al.cl.q.len(),
			RetxHeld:           al.retxHeld(),
		}
		if audit.CheckLink(s) != nil {
			s.Name = al.name()
			n.auditErrs[shard] = audit.CheckLink(s)
			return
		}
	}
	for i := range links {
		fs := links[i].fl.faults
		if fs == nil || audit.CheckLinkFaults("", fs.Drops, fs.Corrupts, fs.Retransmits, fs.Held()) == nil {
			continue
		}
		n.auditErrs[shard] = audit.CheckLinkFaults(links[i].name(), fs.Drops, fs.Corrupts, fs.Retransmits, fs.Held())
		return
	}
}

// auditRoutersShard runs the router invariant auditor over the shard's
// routers, recording the first violation in its auditErrs slot.
func (n *Network) auditRoutersShard(shard int) {
	n.auditErrs[shard] = nil
	lo, hi := n.shardBounds(shard)
	for id := lo; id < hi; id++ {
		if err := n.routers[id].AuditInvariants(); err != nil {
			n.auditErrs[shard] = err
			return
		}
	}
}

// sample records occupancy and VC-usage statistics.
func (n *Network) sample(now int64) {
	occ, slots := 0, 0
	perNode := n.samplePerNode
	for i, r := range n.routers {
		occ += r.Occupied()
		slots += r.TotalSlots()
		perNode[i] = r.InUseVCsPerPort()
	}
	frac := 0.0
	if slots > 0 {
		frac = float64(occ) / float64(slots)
	}
	n.collector.Sample(now, frac, perNode)
	if n.obs != nil {
		vcs := 0.0
		for _, v := range perNode {
			vcs += v
		}
		n.obs.reg.SetGauge(n.obs.gOcc, frac)
		n.obs.reg.SetGauge(n.obs.gVCs, vcs/float64(len(perNode)))
	}
}
