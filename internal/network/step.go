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
	n.rec.StageEvent(metrics.Event{
		Cycle: now, Kind: metrics.EvEject, Packet: f.Pkt.ID, Flit: f.Seq,
		Node: node, Port: -1, VC: f.VC,
	})
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
	if !was && n.collector.Measuring() && !n.haveStart {
		n.startSnap = n.totalCounters()
		//vichar:alloc measurement-window snapshot, taken at most once per run
		n.linkStartSnap = append([]uint64(nil), n.linkFlits...)
		n.haveStart = true
	}
	if was && !n.collector.Measuring() && !n.haveEnd {
		n.endSnap = n.totalCounters()
		//vichar:alloc measurement-window snapshot, taken at most once per run
		n.linkEndSnap = append([]uint64(nil), n.linkFlits...)
		n.haveEnd = true
	}
	if n.txn != nil {
		// Serial commit sub-phase: requests enter their responder's
		// service queue, responses retire their transaction.
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
// traversals. Link traversals are kept per link (each link is ticked
// by exactly one shard), so the network-wide total is their sum.
func (n *Network) totalCounters() stats.Counters {
	var c stats.Counters
	for _, r := range n.routers {
		c.Add(r.Counters())
	}
	for _, f := range n.linkFlits {
		c.LinkTraversals += f
	}
	for _, fs := range n.faultLinks {
		c.FlitDrops += fs.Drops
		c.FlitCorrupts += fs.Corrupts
		c.Retransmits += fs.Retransmits
	}
	return c
}

// Step advances the simulation by exactly one cycle through the
// two-phase kernel:
//
//  1. Deliver (sharded by receiver router): every link delivers its
//     due payloads into the receiving router's input buffers and
//     credit views; ejections are staged per shard.
//  2. Commit + inject (serial): staged ejections are committed in
//     ascending node order — the only phase that mutates the stats
//     collector, the end-to-end sequence check and the measurement
//     snapshots — then new traffic is generated and scheduled trace
//     entries injected.
//  3. Compute (sharded by router): every network interface and router
//     evaluates its pipeline; the only cross-router effects are sends
//     on links the router owns the write side of, delivered next
//     cycle by phase 1.
//
// Shards own disjoint state and the serial sub-phase runs in a fixed
// index order, so the cycle's outcome is bit-identical for any worker
// count.
func (n *Network) Step() {
	n.now++
	now := n.now
	n.runSharded(n.deliverFn)
	// Shards own ascending contiguous node ranges and stage in node
	// order, so shard order is ascending node order.
	for s := range n.lists {
		l := &n.lists[s]
		for i, e := range l.ejects {
			l.ejects[i] = ejection{}
			n.eject(e.node, e.f, now)
		}
		l.ejects = l.ejects[:0]
	}
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
	n.runSharded(n.computeFn)
	// Merge the per-shard wake lists: sends that made an empty link
	// non-empty set the link's bit in its owner's deliver mask. A pure
	// OR over an order-free set, run serially after the compute
	// barrier, so the result is independent of worker scheduling.
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

// deliverShard is phase 1 for one shard: every link owned by the
// shard's routers that may carry payloads delivers its due flits and
// credits. The walk visits the set bits of each router's deliverLinks
// in ascending order — its flit links, then its credit links, each in
// slab order (flitOff/creditOff) — so delivery order is the order of a
// sweep over every link. Reads n.now itself (set before the phase
// barrier) so the bound closure carries no per-cycle state.
//
// Neighbouring shards run on different cores: the worklist tally is
// local, flushed once into the shard's own line, and the per-router
// masks and flags (a line of them spans shards) are stored only when
// the value changes.
func (n *Network) deliverShard(shard int) {
	now := n.now
	lo, hi := n.shardBounds(shard)
	var ticked uint64
	for id := lo; id < hi; id++ {
		// Skip routers none of whose links carry payloads; a bit is set
		// again by the serial wake merge when a writer makes its link
		// non-empty.
		links := n.deliverLinks[id]
		if links == 0 {
			continue
		}
		ticked++
		for m := links; m != 0; m &= m - 1 {
			b := bits.TrailingZeros32(m)
			var pending bool
			if b < creditBit0 {
				pending = n.flitSlab[int(n.flitOff[id])+b].tick(now)
			} else {
				pending = n.creditSlab[int(n.creditOff[id])+b-creditBit0].tick(now)
			}
			if !pending {
				links &^= 1 << b
			}
		}
		// Both entries are shard-owned here: deliver and compute shard
		// by the same id ranges, so no other worker reads them before
		// the phase barrier. Anything delivered (or still in flight)
		// may have changed router id's state, so its compute entry is
		// re-armed conservatively.
		if links != n.deliverLinks[id] {
			n.deliverLinks[id] = links
		}
		if !n.computeActive[id] {
			n.computeActive[id] = true
		}
	}
	n.wlStats[shard].DeliverTicked += ticked
	n.wlStats[shard].DeliverSkipped += uint64(hi-lo) - ticked
}

// computeShard is phase 3 for one shard: the shard's network
// interfaces and routers evaluate their pipelines.
func (n *Network) computeShard(shard int) {
	now := n.now
	lo, hi := n.shardBounds(shard)
	var ticked uint64
	for id := lo; id < hi; id++ {
		if !n.computeActive[id] {
			continue
		}
		ticked++
		s := n.nis[id]
		s.tick(now)
		n.routers[id].Tick(now)
		// A node may sleep only when a tick provably does nothing: the
		// router's masks are empty (Quiescent also rules out attached
		// fault state), the NI neither holds nor queues a packet, and
		// no fault plan is compiled — fault schedules mutate per-cycle
		// state regardless of traffic, so faulted runs never sleep.
		if n.fplan == nil && s.idle() && n.routers[id].Quiescent() {
			n.computeActive[id] = false
		}
	}
	n.wlStats[shard].ComputeTicked += ticked
	n.wlStats[shard].ComputeSkipped += uint64(hi-lo) - ticked
}

// audit runs the per-cycle invariant auditor (internal/audit) over
// every credit-carrying link and every unified buffer. All router and
// link mutation for the cycle has completed behind the compute-phase
// barrier, so the checks are pure reads over quiescent state and are
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
			//vichar:invariant a UBS bookkeeping divergence means buffered flits can be lost or duplicated; continuing would corrupt results
			panic(fmt.Sprintf("network: cycle %d: %v", now, err))
		}
	}
}

// auditLinksShard checks credit conservation over the shard's chunk
// of audited links, writing only its own auditStates/auditErrs slots.
func (n *Network) auditLinksShard(shard int) {
	states := n.auditStates[shard][:0]
	lo, hi := chunkBounds(len(n.auditedLinks), n.shardCount, shard)
	for _, al := range n.auditedLinks[lo:hi] {
		//vichar:alloc appends into the shard's reusable audit-state scratch; capacity reaches the chunk size after the first audited cycle
		states = append(states, audit.LinkState{
			Name:               al.name,
			Outstanding:        al.view.OutstandingFlits(),
			InFlightFlits:      al.fl.q.len(),
			DownstreamOccupied: al.buf.Occupied(),
			InFlightCredits:    al.cl.q.len(),
			RetxHeld:           al.retxHeld(),
		})
	}
	n.auditStates[shard] = states
	n.auditErrs[shard] = audit.CheckLinks(states)
	if n.auditErrs[shard] == nil {
		for _, al := range n.auditedLinks[lo:hi] {
			fs := al.fl.faults
			if fs == nil {
				continue
			}
			if err := audit.CheckLinkFaults(al.name, fs.Drops, fs.Corrupts, fs.Retransmits, fs.Held()); err != nil {
				n.auditErrs[shard] = err
				break
			}
		}
	}
}

// auditRoutersShard runs the UBS invariant auditor over the shard's
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
