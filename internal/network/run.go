package network

import (
	"fmt"

	"vichar/internal/flit"
	"vichar/internal/metrics"
	"vichar/internal/router"
	"vichar/internal/stats"
	"vichar/internal/topology"
	"vichar/internal/trace"
	"vichar/internal/txn"
)

// Mesh returns the network's topology.
func (n *Network) Mesh() topology.Mesh { return n.mesh }

// Router returns router id (tests and diagnostics).
func (n *Network) Router(id int) *router.Router { return n.routers[id] }

// Now returns the current simulation cycle.
func (n *Network) Now() int64 { return n.now }

// CreatedPackets returns the number of packets generated so far.
func (n *Network) CreatedPackets() int64 { return n.created }

// InjectPacket creates a packet from src to dst at the current cycle
// and enqueues it at src's network interface; tests and custom
// workloads use it instead of the built-in traffic generator. The
// returned packet belongs to the caller: the network never recycles
// it, so its fields (EjectedAt, Latency) stay readable after the run.
func (n *Network) InjectPacket(src, dst int) *flit.Packet {
	return n.InjectPacketSized(src, dst, n.cfg.PacketSize)
}

// InjectPacketSized creates a caller-owned packet with an explicit
// flit count (variable-size packet protocol).
func (n *Network) InjectPacketSized(src, dst, size int) *flit.Packet {
	p := &flit.Packet{}
	n.send(p, src, dst, size, 0, 0, 0)
	return p
}

// recordChunk is how many packet records the free list grows by.
const recordChunk = 64

// SendTxnPacket implements txn.Sender: it creates a packet carrying a
// transaction-layer kind, VC class and request reference, and
// enqueues it on the source interface's stream for that class. Plain
// fire-and-forget injection (the traffic generator, trace replay) is
// the zero-kind, zero-class case. The packet is a pooled record:
// valid until its tail ejects, then reused.
func (n *Network) SendTxnPacket(src, dst, size int, kind, class uint8, req uint64) *flit.Packet {
	if len(n.free) == 0 {
		// Every record is in flight: grow the population by one chunk.
		// A record's flit storage comes later, at its first injection
		// (ni.tick), so packets waiting in a deep source queue cost a
		// packet each, not a packet and its flits.
		//vichar:alloc the record population grows to the peak number of packets in flight, a chunk at a time, then the free list serves every packet
		recs := make([]flit.Packet, recordChunk)
		for i := range recs {
			//vichar:alloc the free list grows by doubling to the peak number of packets in flight, then is reused
			n.free = append(n.free, &recs[i])
		}
	}
	k := len(n.free) - 1
	p := n.free[k]
	n.free = n.free[:k]
	p.Reset()
	p.Pooled = true
	n.send(p, src, dst, size, kind, class, req)
	return p
}

// send fills in a blank packet and queues it at its source interface.
func (n *Network) send(p *flit.Packet, src, dst, size int, kind, class uint8, req uint64) {
	n.nextID++
	p.ID = n.nextID
	p.Src, p.Dst, p.Size = src, dst, size
	n.largest = max(n.largest, size)
	p.CreatedAt = n.now
	p.Class, p.Kind, p.Req = class, kind, req
	n.created++
	n.nis[src].enqueue(p)
	// Injection happens in the serial work at the top of the cycle,
	// before the batch, so waking the source here preserves same-cycle
	// NI processing for a sleeping node.
	if !n.computeActive[src] {
		n.computeActive[src] = true
	}
	if n.rec != nil {
		n.rec.StageEvent(metrics.Event{
			Cycle: n.now, Kind: metrics.EvCreate, Packet: p.ID, Flit: -1,
			Node: src, Port: -1, VC: -1,
		})
	}
	if n.recording {
		//vichar:alloc trace recording is an opt-in diagnostic mode; one entry per recorded packet
		n.recorded = append(n.recorded, trace.Entry{Cycle: n.now, Src: src, Dst: dst, Size: size})
	}
}

// injectGenerated adapts SendTxnPacket to the traffic generator's
// callback signature; bound once in New as n.injectFn.
func (n *Network) injectGenerated(src, dst, size int) { n.SendTxnPacket(src, dst, size, 0, 0, 0) }

// RecordTrace turns on packet-creation recording; RecordedTrace
// returns the events captured so far.
func (n *Network) RecordTrace() { n.recording = true }

// RecordedTrace returns the creation events captured since
// RecordTrace.
func (n *Network) RecordedTrace() []trace.Entry { return n.recorded }

// ScheduleTrace queues a recorded workload for replay: each entry is
// injected at its cycle. Entries must be sorted by cycle (trace.Read
// guarantees this) and valid for this network's node count. Typically
// used with InjectionRate zero so the stochastic generator stays
// silent.
func (n *Network) ScheduleTrace(entries []trace.Entry) error {
	if err := trace.ValidateAll(entries, n.mesh.Nodes()); err != nil {
		return err
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].Cycle < entries[i-1].Cycle {
			return fmt.Errorf("network: trace entries out of order at %d", i)
		}
	}
	n.schedule = append(n.schedule, entries...)
	return nil
}

// TracePending returns the number of scheduled entries not yet
// injected.
func (n *Network) TracePending() int { return len(n.schedule) - n.scheduleIdx }

// Metrics returns the live metrics registry, or nil when the
// observability layer is off (Config.Metrics / Config.TraceEvents).
func (n *Network) Metrics() *metrics.Registry {
	if n.obs == nil {
		return nil
	}
	return n.obs.reg
}

// FlitTracer returns the flit-lifecycle event tracer, or nil when
// Config.TraceEvents is zero.
func (n *Network) FlitTracer() *metrics.Tracer {
	if n.obs == nil {
		return nil
	}
	return n.obs.tracer
}

// FlushMetrics forces an observability commit outside the regular
// cadence. It must be called from the goroutine driving Step (between
// steps); tests and custom protocols use it before reading snapshots.
func (n *Network) FlushMetrics() { n.flushObs() }

// Close ends the cycle kernel's helper lanes (if any). The network
// stays usable — a later parallel Step lazily restarts them — but
// closing a finished network frees its goroutines immediately instead
// of waiting for the garbage collector's finalizer.
func (n *Network) Close() { n.stopKernel() }

// Run executes the full measurement protocol: inject until the
// ejection quota (warm-up + measurement) is met, the cycle cap is hit
// or the watchdog finds the network wedged, then finalize statistics;
// the last two mark the results Saturated, and CheckProgress tells
// them apart. The returned results carry the configuration label and
// offered load; power annotation is the caller's concern.
func (n *Network) Run() stats.Results {
	res, _ := n.RunWith(nil)
	return res
}

// RunWith executes the measurement protocol exactly like Run, calling
// hook (when non-nil) between completed cycles — the only point where
// a checkpoint is legal. A non-nil error from hook aborts the run and
// is returned verbatim; the hook must not Step the network itself. A
// wedged run returns its results so far, marked Saturated, with the
// *WedgeError.
func (n *Network) RunWith(hook func(now int64) error) (stats.Results, error) {
	maxCycles := n.cfg.EffectiveMaxCycles()
	saturated := false
	var wedge error
	for {
		n.Step()
		if hook != nil {
			if err := hook(n.now); err != nil {
				return stats.Results{}, err
			}
		}
		if n.collector.Done() {
			break
		}
		if wedge = n.CheckProgress(); wedge != nil || n.now >= maxCycles {
			saturated = true
			break
		}
	}
	if !n.haveEnd {
		n.endSnap = n.totalCounters()
		n.linkEndSnap = append([]uint64(nil), n.linkFlits...)
		n.haveEnd = true
	}
	n.flushObs()
	res := n.collector.Finalize(n.now, saturated)
	if n.haveStart {
		res.Counters = n.endSnap.Sub(n.startSnap)
	} else {
		res.Counters = n.endSnap
	}
	res.ChannelLoads, res.MaxChannelLoad = n.channelLoads(res.MeasureCycles)
	res.Label = n.cfg.Label()
	res.InjectionRate = n.cfg.InjectionRate
	if n.txn != nil {
		res.Txn = stats.FinalizeTxn(n.txn.Latency(), n.txn.Issued(), n.txn.Retired())
	}
	return res, wedge
}

// channelLoads converts the bracketed per-link flit counts into loads
// over the measurement window.
func (n *Network) channelLoads(cycles int64) ([]stats.ChannelLoad, float64) {
	if cycles <= 0 || n.linkEndSnap == nil {
		return nil, 0
	}
	loads := make([]stats.ChannelLoad, len(n.linkMeta))
	maxLoad := 0.0
	for i, meta := range n.linkMeta {
		delta := n.linkEndSnap[i]
		if n.linkStartSnap != nil {
			delta -= n.linkStartSnap[i]
		}
		meta.Load = float64(delta) / float64(cycles)
		loads[i] = meta
		if meta.Load > maxLoad {
			maxLoad = meta.Load
		}
	}
	return loads, maxLoad
}

// Drain runs without injection until every in-flight packet has been
// ejected, maxCycles elapse or the watchdog finds the network wedged
// (CheckProgress then returns the *WedgeError); tests use it after
// manual InjectPacket calls. It returns the number of packets still
// unejected.
func (n *Network) Drain(maxCycles int64) int64 {
	for start := n.now; n.now-start < maxCycles; {
		if n.collector.Ejected() >= n.created && n.TracePending() == 0 &&
			(n.txn == nil || n.txn.Quiescent()) {
			break
		}
		n.Step()
		if n.CheckProgress() != nil {
			break
		}
	}
	n.flushObs()
	return n.created - n.collector.Ejected() + int64(n.TracePending())
}

// Collector exposes the stats collector (tests and custom protocols).
func (n *Network) Collector() *stats.Collector { return n.collector }

// Txn exposes the transaction-layer engine, or nil when Config.Txn is
// off (tests and custom protocols).
func (n *Network) Txn() *txn.Engine { return n.txn }

// WorklistStats tallies active-router worklist effectiveness: how many
// per-router compute and deliver entries each Step ran versus skipped.
type WorklistStats struct {
	ComputeTicked  uint64
	ComputeSkipped uint64
	DeliverTicked  uint64
	DeliverSkipped uint64
}

// shardTally is one shard's WorklistStats alone on its cache line.
type shardTally struct {
	WorklistStats
	_ [cacheLine - 32]byte
}

// shardLists is one shard's staging alone on its cache line: ejects,
// the flits its nodes' ejection links hold due next cycle (ascending
// node order, as the batch visits its routers), and wakes, the tags
// (linkTag) of links its routers' sends made non-empty during the
// batch. Step merges wakes serially after the barrier and commits
// ejects at the top of the next cycle, resetting each to length zero.
// Between Steps wakes is empty and ejects is derived from the ejection
// links: a save stores neither and a load restages ejects.
type shardLists struct {
	ejects []ejection
	wakes  []int
	_      [cacheLine - 48]byte
}

// ejection is a flit due at node's processing element, staged for the
// serial commit.
type ejection struct {
	f    *flit.Flit
	node int
}

// WorklistStats sums the per-shard worklist tallies accumulated since
// construction. Purely diagnostic — the counts do not feed results.
func (n *Network) WorklistStats() WorklistStats {
	var s WorklistStats
	for i := range n.wlStats {
		s.ComputeTicked += n.wlStats[i].ComputeTicked
		s.ComputeSkipped += n.wlStats[i].ComputeSkipped
		s.DeliverTicked += n.wlStats[i].DeliverTicked
		s.DeliverSkipped += n.wlStats[i].DeliverSkipped
	}
	return s
}

// ArenaOverflow returns the number of hot-state elements the
// struct-of-arrays arena served outside its backing arrays; nonzero
// means router.NewArena's sizing formula undershot (locality lost,
// correctness unaffected). TestArenaSizingExact pins it at zero.
func (n *Network) ArenaOverflow() int { return n.arena.Overflow() }

// RouteTableBytes returns the memory footprint of the network's route
// computation (DESIGN.md §10.6): a per-node coordinate table, four
// bytes a node.
func (n *Network) RouteTableBytes() int { return n.arena.Tables().Bytes() }
