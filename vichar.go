// Package vichar is a cycle-accurate Network-on-Chip simulation
// library reproducing "ViChaR: A Dynamic Virtual Channel Regulator
// for Network-on-Chip Routers" (Nicopoulos et al., MICRO 2006).
//
// It provides:
//
//   - a complete wormhole, credit-based, virtual-channel NoC
//     simulator (mesh topology, 4-stage pipelined routers, XY and
//     minimal-adaptive routing, uniform-random and self-similar
//     traffic);
//   - four input-buffer organizations: the conventional statically
//     partitioned buffer (Generic), the paper's dynamic Virtual
//     Channel Regulator (ViChaR), and the DAMQ and FC-CB unified
//     baselines;
//   - an area/power model calibrated to the paper's 90 nm synthesis
//     results (Table 1) with activity-based power back-annotation;
//   - experiment harnesses regenerating every figure and table of the
//     paper's evaluation (see the experiments package).
//
// Quick start:
//
//	cfg := vichar.DefaultConfig()
//	cfg.Arch = vichar.ViChaR
//	cfg.InjectionRate = 0.30
//	res, err := vichar.Run(cfg)
//	if err != nil { ... }
//	fmt.Printf("avg latency: %.1f cycles\n", res.AvgLatency)
package vichar

import (
	"fmt"
	"io"

	"net/http"

	"vichar/internal/config"
	"vichar/internal/flit"
	"vichar/internal/metrics"
	"vichar/internal/network"
	"vichar/internal/power"
	"vichar/internal/stats"
	"vichar/internal/synth"
	"vichar/internal/topology"
	"vichar/internal/trace"
)

// Config describes one simulation; see DefaultConfig for the paper's
// evaluation platform.
type Config = config.Config

// Results carries the metrics of one finished run.
type Results = stats.Results

// SeriesPoint is one sample of a time-series metric.
type SeriesPoint = stats.SeriesPoint

// Counters are the activity-event totals the power model consumes.
type Counters = stats.Counters

// Packet is a simulated message; returned by Simulator.Inject for
// tests and custom workloads. A packet returned by Inject or
// InjectSized belongs to the caller (Pooled is false): the simulator
// never reuses it, so its timestamps stay readable after the run.
type Packet = flit.Packet

// BufferArch selects the router input-buffer organization.
type BufferArch = config.BufferArch

// Buffer architectures.
const (
	// Generic is the statically partitioned per-VC FIFO buffer
	// ("GEN").
	Generic = config.Generic
	// ViChaR is the paper's dynamic Virtual Channel Regulator
	// ("ViC").
	ViChaR = config.ViChaR
	// DAMQ is the Dynamically Allocated Multi-Queue baseline.
	DAMQ = config.DAMQ
	// FCCB is the Fully Connected Circular Buffer baseline.
	FCCB = config.FCCB
)

// RoutingAlg selects the routing function.
type RoutingAlg = config.RoutingAlg

// Routing algorithms.
const (
	// XY is deterministic dimension-ordered routing.
	XY = config.XY
	// MinimalAdaptive routes adaptively with escape-VC deadlock
	// recovery.
	MinimalAdaptive = config.MinimalAdaptive
)

// TrafficProcess selects the temporal injection process.
type TrafficProcess = config.TrafficProcess

// Traffic processes.
const (
	// UniformRandom is Bernoulli injection ("UR").
	UniformRandom = config.UniformRandom
	// SelfSimilar is Pareto ON/OFF burst injection ("SS").
	SelfSimilar = config.SelfSimilar
)

// DestPattern selects the spatial destination distribution.
type DestPattern = config.DestPattern

// Destination patterns.
const (
	// NormalRandom draws destinations uniformly ("NR").
	NormalRandom = config.NormalRandom
	// Tornado offsets destinations half-way along X ("TN").
	Tornado = config.Tornado
	// Transpose sends (x,y) -> (y,x) ("TP").
	Transpose = config.Transpose
	// BitComplement sends node i to node N-1-i ("BC").
	BitComplement = config.BitComplement
	// Hotspot redirects a fraction of packets to the mesh center
	// ("HS"); see Config.HotspotFraction.
	Hotspot = config.Hotspot
)

// Faults configures the deterministic fault model: transient flit
// drops/corruptions recovered by per-link retransmission buffers,
// router port stalls, and scheduled hard link failures routed around
// by the fault-aware escape tree. Zero value = no faults.
type Faults = config.FaultsConfig

// Txn configures the network-interface (NIU) transaction layer:
// request/response protocol traffic (reads, writes, posted writes,
// atomics) with per-node outstanding-request windows, finite
// memory-controller service queues, and message classes mapped onto
// disjoint virtual-channel classes so responses can never be blocked
// behind requests. Zero value = no transaction layer.
type Txn = config.TxnConfig

// TxnResults carries the transaction layer's end-to-end latency
// metrics; Results.Txn is non-nil only when the layer is enabled.
type TxnResults = stats.TxnResults

// FaultEvent is one scheduled fault of a Faults.Events list.
type FaultEvent = config.FaultEvent

// FaultKind discriminates scheduled fault events.
type FaultKind = config.FaultKind

// Fault kinds.
const (
	// KillLink permanently disables a directed inter-router link
	// ("kill-link"); requires MinimalAdaptive routing.
	KillLink = config.KillLink
	// StallPort freezes an input port's control logic for a window
	// ("stall-port").
	StallPort = config.StallPort
	// DropFlit drops the next flit crossing a link once ("drop-flit").
	DropFlit = config.DropFlit
)

// DefaultConfig returns the paper's evaluation platform: an 8x8 mesh
// of 5-port routers with 4 VCs x 4 flits of 128 bits per port, XY
// routing, uniform random traffic.
func DefaultConfig() Config { return config.Default() }

// Simulator drives one network simulation. Construct with
// NewSimulator, then either call Run for the full measurement
// protocol or Step/Inject/Drain for fine-grained control.
type Simulator struct {
	cfg   Config
	net   *network.Network
	model *power.Model
}

// NewSimulator validates cfg and builds the simulated network.
func NewSimulator(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("vichar: %w", err)
	}
	return &Simulator{
		cfg:   cfg,
		net:   network.New(&cfg),
		model: power.NewModel(&cfg),
	}, nil
}

// Config returns the simulator's configuration.
func (s *Simulator) Config() Config { return s.cfg }

// Run executes the full measurement protocol (inject until the
// warm-up + measurement ejection quota is met) and returns the
// power-annotated results. A run that hits its cycle cap, or that the
// forward-progress watchdog finds wedged, ends early marked Saturated;
// CheckProgress then tells the two apart.
func (s *Simulator) Run() Results {
	res := s.net.Run()
	s.model.Annotate(&res)
	return res
}

// WedgeError reports a run that stopped making forward progress:
// packets in flight and no flit ejected for a window derived from the
// configuration. It names the cycle, the last ejection, the packets in
// flight and the router holding the most flits, with its state.
type WedgeError = network.WedgeError

// CheckProgress returns the forward-progress watchdog's verdict at the
// current cycle: nil, or a *WedgeError once packets in flight have
// ejected no flit for the window. Run, RunCheckpointed and Drain check
// after every cycle; a caller driving Step by hand calls it after each
// Step.
func (s *Simulator) CheckProgress() error { return s.net.CheckProgress() }

// Step advances the simulation by one cycle.
func (s *Simulator) Step() { s.net.Step() }

// Close frees the cycle kernel's helper goroutines (present whenever
// the kernel has more than one lane: on a multi-processor host, at
// the default Config.Workers 0 or above 1). Helpers of an idle
// simulator park on their own within a millisecond and burn no CPU;
// Close — or, for a dropped simulator, a finalizer — ends them. The
// simulator stays usable; a later Step restarts them.
func (s *Simulator) Close() { s.net.Close() }

// Now returns the current simulation cycle.
func (s *Simulator) Now() int64 { return s.net.Now() }

// Inject creates one packet from src to dst at the current cycle,
// bypassing the configured traffic generator. The returned pointer
// stays valid for as long as the caller keeps it — unlike the packets
// of the traffic generator, trace replay and the transaction layer,
// which live in recycled records — so EjectedAt and Latency() can be
// read once the packet has drained.
func (s *Simulator) Inject(src, dst int) *Packet { return s.net.InjectPacket(src, dst) }

// InjectSized creates one caller-owned packet (see Inject) with an
// explicit flit count.
func (s *Simulator) InjectSized(src, dst, size int) *Packet {
	return s.net.InjectPacketSized(src, dst, size)
}

// RecordTrace turns on packet-creation recording; retrieve the events
// with RecordedTrace after (or during) the run.
func (s *Simulator) RecordTrace() { s.net.RecordTrace() }

// RecordedTrace returns the packet creation events captured since
// RecordTrace was enabled.
func (s *Simulator) RecordedTrace() []TraceEntry { return s.net.RecordedTrace() }

// LoadTrace schedules a recorded workload for replay: each entry's
// packet is injected at its cycle. Combine with InjectionRate zero
// for a pure replay.
func (s *Simulator) LoadTrace(entries []TraceEntry) error { return s.net.ScheduleTrace(entries) }

// Drain runs until all injected packets are ejected, maxCycles elapse
// or the network wedges (see CheckProgress), returning the number
// still in flight. Use with InjectionRate zero and manual Inject
// calls.
func (s *Simulator) Drain(maxCycles int64) int64 { return s.net.Drain(maxCycles) }

// MetricsSnapshot is a consistent copy of the live metrics registry.
type MetricsSnapshot = metrics.Snapshot

// FlitEvent is one flit-lifecycle record of the event tracer.
type FlitEvent = metrics.Event

// MetricsSnapshot copies the live metrics registry (enabled with
// Config.Metrics or Config.TraceEvents). ok is false when the
// observability layer is off. Safe to call from any goroutine; during
// a run the snapshot lags the simulation by at most
// Config.SampleEvery cycles (Run/Drain flush exactly at their end).
func (s *Simulator) MetricsSnapshot() (MetricsSnapshot, bool) {
	reg := s.net.Metrics()
	if reg == nil {
		return MetricsSnapshot{}, false
	}
	return reg.Snapshot(), true
}

// FlitEvents returns the retained flit-lifecycle events in recording
// order (empty without Config.TraceEvents).
func (s *Simulator) FlitEvents() []FlitEvent {
	tr := s.net.FlitTracer()
	if tr == nil {
		return nil
	}
	return tr.Events()
}

// FlitTimeline reconstructs one packet's retained lifecycle in
// chronological order (empty without Config.TraceEvents, or when the
// packet's events have been evicted from the bounded ring).
func (s *Simulator) FlitTimeline(packet uint64) []FlitEvent {
	tr := s.net.FlitTracer()
	if tr == nil {
		return nil
	}
	return tr.Timeline(packet)
}

// WriteFlitEventsJSONL writes the retained flit events as one JSON
// object per line.
func (s *Simulator) WriteFlitEventsJSONL(w io.Writer) error {
	tr := s.net.FlitTracer()
	if tr == nil {
		return nil
	}
	return tr.WriteJSONL(w)
}

// MetricsHandler returns an http.Handler serving the live registry in
// the Prometheus text format at "/" and, when tracing is enabled, the
// retained flit events as JSONL at "/trace". nil when the
// observability layer is off. The handler is safe to serve from
// another goroutine while the simulation is stepping.
func (s *Simulator) MetricsHandler() http.Handler {
	reg := s.net.Metrics()
	if reg == nil {
		return nil
	}
	return metrics.Handler(reg, s.net.FlitTracer())
}

// FlushMetrics forces an observability commit outside the sampling
// cadence; call it from the goroutine driving Step before reading an
// exact mid-run snapshot.
func (s *Simulator) FlushMetrics() { s.net.FlushMetrics() }

// Run is the one-shot convenience API: validate, simulate, annotate. A
// wedged run returns its results so far, marked Saturated, with the
// *WedgeError.
func Run(cfg Config) (Results, error) {
	s, err := NewSimulator(cfg)
	if err != nil {
		return Results{}, err
	}
	defer s.Close()
	res := s.Run()
	return res, s.CheckProgress()
}

// TraceEntry is one packet creation event of a recorded workload.
type TraceEntry = trace.Entry

// WriteTrace serializes a recorded workload (one "cycle src dst size"
// line per packet).
func WriteTrace(w io.Writer, entries []TraceEntry) error { return trace.Write(w, entries) }

// ReadTrace parses a workload trace, returning entries sorted by
// cycle.
func ReadTrace(r io.Reader) ([]TraceEntry, error) { return trace.Read(r) }

// SynthBreakdown is the per-component area/power synthesis estimate
// for one router (the Table 1 substitute).
type SynthBreakdown = synth.Breakdown

// Synthesize returns the synthesis-model estimate for cfg's router.
func Synthesize(cfg Config) SynthBreakdown { return synth.Estimate(&cfg) }

// Table1Row is one line of the regenerated Table 1.
type Table1Row = synth.Table1Row

// Table1 regenerates the paper's Table 1 (per-port area/power
// breakdown of the ViChaR and generic architectures) plus the
// overhead/savings deltas.
func Table1() (vichar, generic []Table1Row, areaDelta, powerDelta float64) {
	return synth.Table1()
}

// HalfBufferSavings returns the router-level area and power savings
// of a half-buffer ViChaR router versus the full-size generic router
// (the paper's ~30%/~34% headline claim).
func HalfBufferSavings() (areaSaving, powerSaving float64) { return synth.HalfBufferSavings() }

// StaticPowerWatts returns the load-independent network power of a
// configuration in watts.
func StaticPowerWatts(cfg Config) float64 { return power.NewModel(&cfg).StaticWatts() }

// NodeAt returns the node id at mesh coordinates (x, y) of cfg's
// topology; a convenience for custom workloads.
func NodeAt(cfg Config, x, y int) int {
	return topology.New(cfg.Width, cfg.Height).Node(x, y)
}

// CoordsOf returns the mesh coordinates of node id.
func CoordsOf(cfg Config, node int) (x, y int) {
	return topology.New(cfg.Width, cfg.Height).XY(node)
}
