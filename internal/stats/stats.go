// Package stats accumulates the metrics the paper reports: average
// packet latency, throughput (flits/cycle), percent buffer occupancy,
// the spatial and temporal distribution of in-use virtual channels,
// and the activity counters the power model back-annotates.
//
// The measurement protocol follows §4.1: packets keep being injected
// until WarmupPackets+MeasurePackets have been ejected; the first
// WarmupPackets ejections are warm-up and excluded from latency,
// throughput and occupancy statistics.
package stats

import (
	"fmt"

	"vichar/internal/flit"
)

// Counters tallies the microarchitectural events the power model
// converts into energy. All counts are network-wide totals.
type Counters struct {
	// BufferWrites and BufferReads count flit slot accesses at router
	// input ports.
	BufferWrites uint64
	BufferReads  uint64
	// XbarTraversals counts flits crossing a router crossbar.
	XbarTraversals uint64
	// LinkTraversals counts flits crossing an inter-router link.
	LinkTraversals uint64
	// VAOps counts virtual-channel allocation attempts (stage-1
	// arbitration activations).
	VAOps uint64
	// SAOps counts switch-allocation activations.
	SAOps uint64
	// VCGrants counts successful VC allocations (token grants).
	VCGrants uint64

	// Fault-model activity (zero without Config.Faults): flits lost
	// on links, flits failing their CRC at the receiver, link-level
	// retransmissions, port-cycles spent frozen by a stall fault, and
	// packets re-channelled onto escape VCs.
	FlitDrops      uint64
	FlitCorrupts   uint64
	Retransmits    uint64
	StallCycles    uint64
	EscapeReroutes uint64
}

// Sub returns the counter difference c - other (for windowed
// measurement over cumulative counters).
func (c Counters) Sub(other Counters) Counters {
	return Counters{
		BufferWrites:   c.BufferWrites - other.BufferWrites,
		BufferReads:    c.BufferReads - other.BufferReads,
		XbarTraversals: c.XbarTraversals - other.XbarTraversals,
		LinkTraversals: c.LinkTraversals - other.LinkTraversals,
		VAOps:          c.VAOps - other.VAOps,
		SAOps:          c.SAOps - other.SAOps,
		VCGrants:       c.VCGrants - other.VCGrants,
		FlitDrops:      c.FlitDrops - other.FlitDrops,
		FlitCorrupts:   c.FlitCorrupts - other.FlitCorrupts,
		Retransmits:    c.Retransmits - other.Retransmits,
		StallCycles:    c.StallCycles - other.StallCycles,
		EscapeReroutes: c.EscapeReroutes - other.EscapeReroutes,
	}
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.BufferWrites += other.BufferWrites
	c.BufferReads += other.BufferReads
	c.XbarTraversals += other.XbarTraversals
	c.LinkTraversals += other.LinkTraversals
	c.VAOps += other.VAOps
	c.SAOps += other.SAOps
	c.VCGrants += other.VCGrants
	c.FlitDrops += other.FlitDrops
	c.FlitCorrupts += other.FlitCorrupts
	c.Retransmits += other.Retransmits
	c.StallCycles += other.StallCycles
	c.EscapeReroutes += other.EscapeReroutes
}

// SeriesPoint is one sample of a time-series metric.
type SeriesPoint struct {
	Cycle int64
	Value float64
}

// ChannelLoad is the measured utilization of one inter-router link.
type ChannelLoad struct {
	// From and To are the endpoint node IDs; Port is the output port
	// at From.
	From, To, Port int
	// Load is flits per cycle over the measurement window (link
	// capacity is 1).
	Load float64
}

// Results is the outcome of one simulation run.
type Results struct {
	// Label identifies the configuration ("GEN-16", "ViC-8", ...).
	Label string
	// InjectionRate echoes the offered load in flits/node/cycle.
	InjectionRate float64

	// AvgLatency is the mean packet latency in cycles (creation to
	// tail ejection) over the measurement window.
	AvgLatency float64
	// AvgQueueLatency is the mean time packets spent waiting in their
	// source queue before the head flit entered the network.
	AvgQueueLatency float64
	// AvgNetworkLatency is the mean in-network time (head injection
	// to tail ejection); AvgLatency = AvgQueueLatency +
	// AvgNetworkLatency.
	AvgNetworkLatency float64
	// P50Latency, P95Latency and P99Latency are latency percentiles
	// over the measured packets; MaxLatency is the worst case.
	P50Latency float64
	P95Latency float64
	P99Latency float64
	MaxLatency int64
	// Throughput is network-wide ejected flits per cycle during the
	// measurement window.
	Throughput float64
	// AvgOccupancy is the mean fraction of buffer slots occupied
	// (0..1) sampled over the measurement window.
	AvgOccupancy float64
	// AvgInUseVCs is the mean number of in-use virtual channels per
	// router port over the measurement window.
	AvgInUseVCs float64
	// PerNodeVCs is the per-node mean of in-use VCs per port — the
	// spatial map of paper Figure 13(e).
	PerNodeVCs []float64
	// VCSeries is the temporal evolution of network-mean in-use VCs —
	// paper Figure 13(f). Sampled from cycle zero (including warm-up).
	VCSeries []SeriesPoint

	// MeasuredPackets is the number of packets in the latency
	// average.
	MeasuredPackets int64
	// EjectedPackets is the total ejected, including warm-up.
	EjectedPackets int64
	// MeasureCycles is the length of the measurement window.
	MeasureCycles int64
	// TotalCycles is the complete run length.
	TotalCycles int64
	// Saturated is set when the run hit its cycle cap before ejecting
	// its quota — the network could not sustain the offered load.
	Saturated bool

	// ChannelLoads is the per-link utilization over the measurement
	// window (inter-router links only), and MaxChannelLoad its
	// maximum — the bottleneck channel.
	ChannelLoads   []ChannelLoad
	MaxChannelLoad float64

	// Counters are the activity totals over the measurement window.
	Counters Counters
	// AvgPowerWatts is filled in by the power model (0 if unused).
	AvgPowerWatts float64

	// Txn carries the transaction-layer results; nil (and omitted
	// from JSON) when Config.Txn is off, so fire-and-forget result
	// fixtures are unaffected by the layer's existence.
	Txn *TxnResults `json:",omitempty"`
}

// TxnResults is the transaction layer's end-to-end outcome: counts
// over the whole run, latency statistics (request creation to
// retirement, in cycles) over the measurement window.
type TxnResults struct {
	// Issued and Retired count transactions over the whole run; a gap
	// at finalization means transactions were still in flight.
	Issued  int64
	Retired int64
	// MeasuredTxns is the number of latency samples below.
	MeasuredTxns int64
	// AvgLatency and the percentiles summarize end-to-end transaction
	// latency: request creation to response tail ejection at the
	// requester (posted writes: to tail ejection at the target).
	AvgLatency float64
	P50Latency float64
	P95Latency float64
	P99Latency float64
	MaxLatency int64
}

// FinalizeTxn reduces the engine's latency histogram into
// TxnResults; an empty histogram yields zero latency statistics.
func FinalizeTxn(h *Histogram, issued, retired int64) *TxnResults {
	t := &TxnResults{Issued: issued, Retired: retired, MeasuredTxns: h.Count()}
	if h.Count() == 0 {
		return t
	}
	// Every partial sum of integer latencies stays far below 2^53, so
	// the exact integer sum converts to the same float64 a running
	// float sum reaches.
	t.AvgLatency = float64(h.Sum()) / float64(h.Count())
	t.P50Latency = h.Quantile(0.50)
	t.P95Latency = h.Quantile(0.95)
	t.P99Latency = h.Quantile(0.99)
	t.MaxLatency = h.Max()
	return t
}

func (r *Results) String() string {
	return fmt.Sprintf("%s@%.3f: lat=%.1f thr=%.2f occ=%.1f%% vcs=%.2f pkts=%d sat=%v",
		r.Label, r.InjectionRate, r.AvgLatency, r.Throughput,
		r.AvgOccupancy*100, r.AvgInUseVCs, r.MeasuredPackets, r.Saturated)
}

// Collector accumulates metrics during a run. The network calls its
// hooks; it is not safe for concurrent use. Under the cycle kernel
// (DESIGN.md §10) every mutation happens in the serial commit at the
// top of the cycle — the due ejections commit in ascending node order
// before the cycle's batch — so the collector never sees concurrent
// callers and its totals are independent of the kernel's worker count.
type Collector struct {
	warmup  int64
	measure int64
	nodes   int

	ejected    int64
	measured   int64
	latencySum float64
	queueSum   float64
	// latencies is the ordered per-packet record: Latencies, the digest
	// walls and the bit-identical resume contract need every sample in
	// ejection order. Finalize reduces it through a Histogram, never a
	// sorted copy.
	latencies    []int64
	ejectedFlits int64

	measuring    bool
	opened       bool // the window has opened at least once
	measureStart int64
	measureEnd   int64 // 0 while the window is still open

	occSum     float64
	occSamples int64

	vcSum        float64
	vcSamples    int64
	perNodeSum   []float64
	perNodeCount int64

	series []SeriesPoint

	counters Counters
}

// NewCollector returns a collector for the given measurement protocol
// over a network of nodes nodes.
func NewCollector(warmupPackets, measurePackets, nodes int) *Collector {
	return &Collector{
		warmup:     int64(warmupPackets),
		measure:    int64(measurePackets),
		nodes:      nodes,
		perNodeSum: make([]float64, nodes),
	}
}

// maxLatencyReserve caps the latency reservation below: a quota set
// absurdly high to mean "run to the cycle cap" must not reserve
// gigabytes; past the cap the slice grows by doubling.
const maxLatencyReserve = 1 << 18

// reserveLatencies sizes the per-packet latency record for the whole
// measurement window in one allocation, so recording a latency never
// reallocates (and re-copies) the record mid-run.
func (c *Collector) reserveLatencies() {
	want := int(min(c.measure, maxLatencyReserve))
	if cap(c.latencies) >= want {
		return
	}
	grown := make([]int64, len(c.latencies), want)
	copy(grown, c.latencies)
	c.latencies = grown
}

// Measuring reports whether the measurement window is open at the
// given moment.
func (c *Collector) Measuring() bool { return c.measuring }

// Done reports whether the ejection quota has been met.
func (c *Collector) Done() bool { return c.ejected >= c.warmup+c.measure }

// Ejected returns the total ejected packet count so far.
func (c *Collector) Ejected() int64 { return c.ejected }

// Latencies returns the per-packet latencies recorded in the
// measurement window, in ejection order: a read-only view of the
// collector's record, capacity clipped to its length so an append by
// the caller copies instead of writing into the record. The
// determinism regression test compares them element-wise across
// same-seed runs.
func (c *Collector) Latencies() []int64 {
	return c.latencies[:len(c.latencies):len(c.latencies)]
}

// PacketEjected records the ejection of p at cycle now. The
// measurement window opens at the cycle of the boundary ejection —
// the warmup-th one, or the very first when there is no warm-up — so
// latency sums, throughput, occupancy samples and the network's
// counter snapshots all bracket the same [start, end] interval
// (Window).
func (c *Collector) PacketEjected(p *flit.Packet, now int64) {
	c.ejected++
	if !c.opened && (c.ejected == c.warmup || c.warmup == 0) {
		c.measuring = true
		c.opened = true
		c.measureStart = now
		c.reserveLatencies()
	}
	if c.measuring && c.ejected > c.warmup && c.measured < c.measure {
		c.measured++
		c.latencySum += float64(p.Latency())
		c.queueSum += float64(p.InjectedAt - p.CreatedAt)
		c.latencies = append(c.latencies, p.Latency())
		c.ejectedFlits += int64(p.Size)
		if c.measured == c.measure {
			c.measureEnd = now
			c.measuring = false
		}
	}
}

// Sample records one stats sample: the network-wide buffer occupancy
// fraction and the per-node mean in-use VC count per port. The VC
// time series is recorded for the whole run; occupancy and VC
// averages only accumulate during the measurement window.
func (c *Collector) Sample(now int64, occupancy float64, perNodeVCs []float64) {
	mean := 0.0
	for _, v := range perNodeVCs {
		mean += v
	}
	if len(perNodeVCs) > 0 {
		mean /= float64(len(perNodeVCs))
	}
	c.series = append(c.series, SeriesPoint{Cycle: now, Value: mean})

	if !c.measuring {
		return
	}
	c.occSum += occupancy
	c.occSamples++
	c.vcSum += mean
	c.vcSamples++
	for i, v := range perNodeVCs {
		if i < len(c.perNodeSum) {
			c.perNodeSum[i] += v
		}
	}
	c.perNodeCount++
}

// AddCounters accumulates activity events; the network only calls it
// for events inside the measurement window.
func (c *Collector) AddCounters(delta Counters) { c.counters.Add(delta) }

// Window returns the measurement window's bounds as of cycle now.
// start is the cycle the window opened; end is the cycle it closed,
// or now while it is still open — a saturated run that hits its cycle
// cap mid-measurement gets the same bounds every downstream consumer
// (throughput, occupancy, power) divides by. ok is false when the
// window never opened (no measurable ejection before the cap).
func (c *Collector) Window(now int64) (start, end int64, ok bool) {
	if !c.opened {
		return 0, 0, false
	}
	end = c.measureEnd
	if end == 0 {
		end = now
	}
	return c.measureStart, end, true
}

// Finalize closes the run at cycle now and computes the results.
// saturated marks a run that hit its cycle cap short of its quota.
func (c *Collector) Finalize(now int64, saturated bool) Results {
	r := Results{
		MeasuredPackets: c.measured,
		EjectedPackets:  c.ejected,
		TotalCycles:     now,
		Saturated:       saturated,
		Counters:        c.counters,
		VCSeries:        c.series,
	}
	if start, end, ok := c.Window(now); ok {
		r.MeasureCycles = end - start
	}
	if c.measured > 0 {
		r.AvgLatency = c.latencySum / float64(c.measured)
		r.AvgQueueLatency = c.queueSum / float64(c.measured)
		r.AvgNetworkLatency = r.AvgLatency - r.AvgQueueLatency
		var h Histogram
		for _, l := range c.latencies {
			h.Add(l)
		}
		r.P50Latency = h.Quantile(0.50)
		r.P95Latency = h.Quantile(0.95)
		r.P99Latency = h.Quantile(0.99)
		r.MaxLatency = h.Max()
	}
	if r.MeasureCycles > 0 {
		r.Throughput = float64(c.ejectedFlits) / float64(r.MeasureCycles)
	}
	if c.occSamples > 0 {
		r.AvgOccupancy = c.occSum / float64(c.occSamples)
	}
	if c.vcSamples > 0 {
		r.AvgInUseVCs = c.vcSum / float64(c.vcSamples)
	}
	r.PerNodeVCs = make([]float64, c.nodes)
	if c.perNodeCount > 0 {
		for i := range r.PerNodeVCs {
			r.PerNodeVCs[i] = c.perNodeSum[i] / float64(c.perNodeCount)
		}
	}
	return r
}
