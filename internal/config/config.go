// Package config defines the validated configuration shared by every
// layer of the simulator: topology shape, router microarchitecture,
// buffer organization, routing algorithm, traffic workload and
// measurement protocol.
//
// The defaults mirror the evaluation platform of the ViChaR paper
// (MICRO 2006, §4.1): an 8x8 mesh of 5-port, 4-stage pipelined
// routers; 4 virtual channels per port, each 4 flits deep (16 slots
// per port, 80 per router); 128-bit flits; 4-flit packets; 300,000
// ejected messages of which 100,000 are warm-up. The paper's 500 MHz
// clock belongs to the synthesis model (internal/synth), not to the
// cycle-level configuration.
package config

import "fmt"

// BufferArch selects the input-buffer organization of every router.
type BufferArch int

const (
	// Generic is the conventional statically partitioned buffer:
	// VCs independent FIFO queues of VCDepth flits each ("GEN" in the
	// paper's result graphs).
	Generic BufferArch = iota
	// ViChaR is the paper's dynamic Virtual Channel Regulator: a
	// unified buffer of BufferSlots flits whose slots and virtual
	// channels (up to BufferSlots of them) are dispensed on demand
	// ("ViC" in the result graphs).
	ViChaR
	// DAMQ is the Dynamically Allocated Multi-Queue baseline
	// (Tamir & Frazier, ISCA 1988): unified storage, a fixed number
	// of queues, and a 3-cycle linked-list bookkeeping penalty on
	// every flit arrival and departure.
	DAMQ
	// FCCB is the Fully Connected Circular Buffer baseline (Ni,
	// Pirvu & Bhuyan, ICCD 1998): unified storage shared by a fixed
	// number of VCs; per the paper's fair-comparison assumption its
	// buffer management completes in a single cycle.
	FCCB
)

// String returns the graph label used in the paper.
func (a BufferArch) String() string {
	switch a {
	case Generic:
		return "GEN"
	case ViChaR:
		return "ViC"
	case DAMQ:
		return "DAMQ"
	case FCCB:
		return "FC-CB"
	default:
		return fmt.Sprintf("BufferArch(%d)", int(a))
	}
}

// RoutingAlg selects the routing function.
type RoutingAlg int

const (
	// XY is dimension-ordered deterministic routing (X first, then
	// Y); it is inherently deadlock-free on a mesh.
	XY RoutingAlg = iota
	// MinimalAdaptive routes along any minimal direction, choosing
	// the least congested productive output; deadlock recovery uses
	// escape virtual channels that route deterministically (XY).
	MinimalAdaptive
)

func (r RoutingAlg) String() string {
	switch r {
	case XY:
		return "XY"
	case MinimalAdaptive:
		return "MinAdaptive"
	default:
		return fmt.Sprintf("RoutingAlg(%d)", int(r))
	}
}

// TrafficProcess selects the temporal injection process.
type TrafficProcess int

const (
	// UniformRandom ("UR") injects packets as a Bernoulli process at
	// the configured rate.
	UniformRandom TrafficProcess = iota
	// SelfSimilar ("SS") injects bursts from superposed Pareto ON/OFF
	// sources, emulating internet/Ethernet-like traffic.
	SelfSimilar
)

func (t TrafficProcess) String() string {
	switch t {
	case UniformRandom:
		return "UR"
	case SelfSimilar:
		return "SS"
	default:
		return fmt.Sprintf("TrafficProcess(%d)", int(t))
	}
}

// DestPattern selects the spatial destination distribution.
type DestPattern int

const (
	// NormalRandom ("NR") draws the destination uniformly among all
	// other nodes.
	NormalRandom DestPattern = iota
	// Tornado ("TN") sends each packet halfway around the X dimension
	// (the standard adversarial pattern from Singh et al., ISCA 2003).
	Tornado
	// Transpose ("TP") sends (x,y) -> (y,x), the classic matrix
	// transpose permutation that stresses diagonal paths.
	Transpose
	// BitComplement ("BC") sends node i to node N-1-i, maximizing
	// average hop distance.
	BitComplement
	// Hotspot ("HS") draws uniformly but redirects a fraction of
	// packets to a single hot node (the mesh center), modeling a
	// shared resource such as a memory controller.
	Hotspot
)

func (d DestPattern) String() string {
	switch d {
	case NormalRandom:
		return "NR"
	case Tornado:
		return "TN"
	case Transpose:
		return "TP"
	case BitComplement:
		return "BC"
	case Hotspot:
		return "HS"
	default:
		return fmt.Sprintf("DestPattern(%d)", int(d))
	}
}

// Config is the complete description of one simulation. The zero
// value is not usable; start from Default and override.
type Config struct {
	// Width and Height give the mesh dimensions (paper: 8x8).
	Width, Height int
	// Torus adds wraparound links in both dimensions. Wrap rings
	// close channel-dependency cycles, so a torus requires escape
	// VCs regardless of the routing algorithm (the escape network
	// routes dimension-ordered without ever wrapping).
	Torus bool

	// VCs is the number of virtual channels per port in statically
	// organized schemes (Generic, DAMQ, FCCB) and the design-time v
	// parameter of ViChaR. Paper default: 4.
	VCs int
	// VCDepth is the per-VC FIFO depth k of the Generic scheme.
	// Paper default: 4.
	VCDepth int
	// BufferSlots is the total number of flit slots per input port.
	// For Generic it must equal VCs*VCDepth; for the unified schemes
	// (ViChaR, DAMQ, FCCB) it is the pool size, and for ViChaR it is
	// also the maximum number of simultaneously dispensed VCs.
	BufferSlots int

	// VCLimit, when positive, caps the number of virtual channels a
	// ViChaR port may have dispensed simultaneously below the default
	// of BufferSlots. It exists for the ablation that isolates
	// ViChaR's unified storage from its dynamic VC count (a ViChaR
	// with VCLimit = VCs has unified storage only). Ignored by other
	// architectures.
	VCLimit int

	// FlitWidthBits is the channel/flit width (paper: 128).
	FlitWidthBits int
	// PacketSize is the number of flits per packet (paper: 4 — one
	// head, two data, one tail).
	PacketSize int
	// PacketSizeMax, when greater than PacketSize, enables the
	// variable-size packet protocol the paper's VC Control Table
	// "can trivially be changed to accommodate": sizes are drawn
	// uniformly from [PacketSize, PacketSizeMax].
	PacketSizeMax int

	// HotspotFraction is the probability a Hotspot-pattern packet
	// targets the hot node instead of a uniform destination. Default
	// carries 0.1; the value is used exactly as configured, and
	// Validate rejects a non-positive fraction when the pattern is
	// Hotspot — an explicit 0 is an error, not a silent 0.1.
	HotspotFraction float64

	// Speculative selects the low-latency router organization the
	// paper cites (Peh & Dally, HPCA 2001): VA and SA are performed
	// in the same cycle, with speculation modeled as always
	// succeeding, shortening the pipeline from 4 stages to 3.
	Speculative bool

	Arch    BufferArch
	Routing RoutingAlg
	Traffic TrafficProcess
	Dest    DestPattern

	// InjectionRate is the offered load in flits/node/cycle.
	InjectionRate float64

	// WarmupPackets and MeasurePackets define the measurement
	// protocol: statistics cover ejected packets number
	// WarmupPackets+1 through WarmupPackets+MeasurePackets.
	// Paper: 100,000 and 200,000.
	WarmupPackets  int
	MeasurePackets int
	// MaxCycles bounds a run that cannot reach its ejection quota
	// (deep saturation). 0 means a generous default.
	MaxCycles int64

	// Seed makes runs reproducible; equal configs with equal seeds
	// produce identical results.
	Seed int64

	// Workers is the shard count of the cycle kernel (see
	// DESIGN.md §10). 0, the default, is one shard per processor the
	// process has — min(GOMAXPROCS, CPUs), but at most one per 32
	// routers, so a mesh of fewer than 64 steps serially — and 1 runs
	// the kernel serially; higher values split the batch of every
	// cycle, each router's deliver and compute, into that many
	// router-ID shards, run on min(Workers, GOMAXPROCS, CPUs) lanes —
	// goroutines that each keep the same shards for the whole run. Results and
	// snapshots are bit-identical at every setting — the kernel's
	// ownership contract and its index-ordered serial work make the
	// outcome independent of lane scheduling — so Workers is purely a
	// wall-clock knob.
	Workers int

	// Audit enables the per-cycle invariant auditor (internal/audit):
	// after every simulation step the network verifies credit
	// conservation on every link and, for ViChaR, cross-checks each
	// port's VC Control Table against its Slot Availability Tracker.
	// Any violation panics. Costs roughly a full pass over all router
	// state per cycle; meant for tests and debugging, not sweeps.
	Audit bool

	// Metrics enables the live observability layer (internal/metrics):
	// a registry of per-router, per-port, per-pipeline-stage,
	// per-link and per-node counter series. The registry is a view
	// over each component's own counters, refreshed by a serial store
	// pass at the SampleEvery cadence (and a final flush), so results
	// and registry state stay bit-identical for any Workers setting;
	// shard-owned recorders stage only flit events, and only when
	// TraceEvents > 0. Off by default; the disabled path costs one
	// nil check per instrumentation site.
	Metrics bool

	// TraceEvents, when positive, bounds the flit-lifecycle event
	// tracer's ring buffer (create, inject, RC, VA grant, SA grant,
	// link traverse, eject) and implies Metrics. Zero disables
	// tracing.
	TraceEvents int

	// EscapeVCs is the number of virtual channels (or ViChaR tokens)
	// reserved as deadlock-recovery escape channels when routing is
	// MinimalAdaptive. They carry deterministically (XY) routed
	// packets only.
	EscapeVCs int
	// DeadlockThreshold is the number of cycles a packet may wait for
	// VC allocation before the token dispenser re-channels it onto an
	// escape VC (adaptive routing only).
	DeadlockThreshold int

	// DAMQDelay is the linked-list bookkeeping latency of the DAMQ
	// baseline in cycles (paper: 3, for every flit arrival and
	// departure).
	DAMQDelay int

	// Faults schedules the deterministic fault model (internal/faults):
	// seed-driven transient link faults recovered by per-link
	// retransmission buffers, router port stalls, and scheduled hard
	// link failures routed around by a fault-aware escape tree. The
	// zero value injects nothing. Fault placement is a pure function of
	// Faults.Seed and the faulted resource, so results remain
	// bit-identical at every Workers setting.
	Faults FaultsConfig

	// Txn enables the network-interface transaction layer
	// (internal/txn): request/response protocol traffic with per-node
	// outstanding-request windows, finite memory-controller service
	// queues, and message classes mapped onto disjoint virtual-channel
	// classes. The zero value disables it; see TxnConfig.
	Txn TxnConfig

	// SampleEvery is the stats sampling period, in cycles, for the
	// time-series metrics (buffer occupancy, in-use VC counts).
	SampleEvery int64
}

// Default returns the paper's evaluation configuration: an 8x8 mesh,
// Generic 4x4-flit buffers, XY routing, uniform random traffic with
// normally (uniformly) random destinations at a low injection rate.
func Default() Config {
	return Config{
		Width:  8,
		Height: 8,

		VCs:         4,
		VCDepth:     4,
		BufferSlots: 16,

		FlitWidthBits: 128,
		PacketSize:    4,

		HotspotFraction: 0.1,

		Arch:    Generic,
		Routing: XY,
		Traffic: UniformRandom,
		Dest:    NormalRandom,

		InjectionRate: 0.1,

		WarmupPackets:  100_000,
		MeasurePackets: 200_000,
		MaxCycles:      0,

		Seed: 1,

		EscapeVCs:         1,
		DeadlockThreshold: 64,

		DAMQDelay: 3,

		SampleEvery: 100,
	}
}

// Nodes returns the number of network nodes.
func (c *Config) Nodes() int { return c.Width * c.Height }

// Ports returns the router radix: four mesh directions plus the local
// processing-element port.
func (c *Config) Ports() int { return 5 }

// MaxVCs returns the number of virtual channel identifiers an input
// port of this configuration can have in flight: VCs for the fixed
// schemes, BufferSlots for ViChaR (one slot per VC at the extreme).
func (c *Config) MaxVCs() int {
	if c.Arch == ViChaR {
		if c.VCLimit > 0 && c.VCLimit < c.BufferSlots {
			return c.VCLimit
		}
		return c.BufferSlots
	}
	return c.VCs
}

// NeedsEscape reports whether the configuration's routing relation
// can deadlock and therefore requires escape virtual channels:
// adaptive routing (cyclic turn dependencies) or any torus (cyclic
// wraparound rings).
func (c *Config) NeedsEscape() bool {
	return c.Routing == MinimalAdaptive || c.Torus
}

// EffectiveMaxCycles returns MaxCycles, or a generous default scaled
// to the workload when MaxCycles is zero.
func (c *Config) EffectiveMaxCycles() int64 {
	if c.MaxCycles > 0 {
		return c.MaxCycles
	}
	total := int64(c.WarmupPackets+c.MeasurePackets) * int64(c.PacketSize)
	rate := c.InjectionRate
	if rate < 0.01 {
		rate = 0.01
	}
	est := float64(total) / (rate * float64(c.Nodes()))
	cycles := int64(est*20) + 100_000
	return cycles
}

// MaxBufferSlots bounds BufferSlots and VCs (and with them MaxVCs
// and VCDepth): the simulator stores slot ids, VC ids and per-VC flit
// counts in 16-bit signed fields — the VC Control Table's links, the
// credit views' counters, the router's packed (port, VC) routes.
const MaxBufferSlots = 1<<15 - 1

// MaxNodes and MaxPacketSize bound the mesh and the packet length: the
// event tracer stores a node id and a flit index (-1 for none) in
// 16-bit signed fields, as it does the VC ids MaxBufferSlots bounds.
const (
	MaxNodes      = 1<<15 - 1
	MaxPacketSize = 1 << 15
)

// RangeError reports a configuration field whose value lies outside
// [Min, Max]: above what the simulator's packed state can represent,
// or below what the configured structure needs.
type RangeError struct {
	Field    string
	Value    int
	Min, Max int
}

func (e *RangeError) Error() string {
	if e.Value < e.Min {
		return fmt.Sprintf("config: %s is %d, below the supported minimum %d", e.Field, e.Value, e.Min)
	}
	return fmt.Sprintf("config: %s is %d, above the supported maximum %d", e.Field, e.Value, e.Max)
}

// Validate reports the first problem with the configuration, or nil.
func (c *Config) Validate() error {
	switch {
	case c.Width < 2 || c.Height < 2:
		return fmt.Errorf("config: mesh must be at least 2x2, got %dx%d", c.Width, c.Height)
	case c.VCs < 1:
		return fmt.Errorf("config: need at least 1 VC, got %d", c.VCs)
	case c.BufferSlots < 1:
		return fmt.Errorf("config: need at least 1 buffer slot, got %d", c.BufferSlots)
	case c.VCs > MaxBufferSlots:
		return &RangeError{Field: "VCs", Value: c.VCs, Max: MaxBufferSlots}
	case c.BufferSlots > MaxBufferSlots:
		return &RangeError{Field: "BufferSlots", Value: c.BufferSlots, Max: MaxBufferSlots}
	case c.Width > MaxNodes:
		return &RangeError{Field: "Width", Value: c.Width, Max: MaxNodes}
	case c.Height > MaxNodes:
		return &RangeError{Field: "Height", Value: c.Height, Max: MaxNodes}
	case c.Nodes() > MaxNodes: // a product of two that cannot overflow
		return &RangeError{Field: "Width*Height", Value: c.Nodes(), Max: MaxNodes}
	case c.PacketSize < 1:
		return fmt.Errorf("config: packet size must be positive, got %d", c.PacketSize)
	case c.PacketSize > MaxPacketSize:
		return &RangeError{Field: "PacketSize", Value: c.PacketSize, Max: MaxPacketSize}
	case c.PacketSizeMax > MaxPacketSize:
		return &RangeError{Field: "PacketSizeMax", Value: c.PacketSizeMax, Max: MaxPacketSize}
	case c.FlitWidthBits < 1:
		return fmt.Errorf("config: flit width must be positive, got %d", c.FlitWidthBits)
	case c.InjectionRate < 0 || c.InjectionRate > 1:
		return fmt.Errorf("config: injection rate must be in [0,1] flits/node/cycle, got %g", c.InjectionRate)
	case c.WarmupPackets < 0 || c.MeasurePackets < 1:
		return fmt.Errorf("config: need non-negative warm-up and positive measurement packet counts, got %d/%d", c.WarmupPackets, c.MeasurePackets)
	case c.SampleEvery < 1:
		return fmt.Errorf("config: sample period must be positive, got %d", c.SampleEvery)
	case c.Workers < 0:
		return fmt.Errorf("config: kernel workers cannot be negative, got %d", c.Workers)
	case c.TraceEvents < 0:
		return fmt.Errorf("config: trace event ring capacity cannot be negative, got %d", c.TraceEvents)
	}
	if c.Arch == Generic {
		if c.VCDepth < 1 {
			return fmt.Errorf("config: generic buffers need positive VC depth, got %d", c.VCDepth)
		}
		if c.BufferSlots != c.VCs*c.VCDepth {
			return fmt.Errorf("config: generic buffer slots (%d) must equal VCs*VCDepth (%d*%d)", c.BufferSlots, c.VCs, c.VCDepth)
		}
	}
	if c.Arch == ViChaR && c.VCLimit < 0 {
		return fmt.Errorf("config: VC limit cannot be negative, got %d", c.VCLimit)
	}
	if c.PacketSizeMax != 0 && c.PacketSizeMax < c.PacketSize {
		return fmt.Errorf("config: max packet size (%d) below packet size (%d)", c.PacketSizeMax, c.PacketSize)
	}
	if c.HotspotFraction < 0 || c.HotspotFraction > 1 {
		return fmt.Errorf("config: hotspot fraction must be in [0,1], got %g", c.HotspotFraction)
	}
	if c.Dest == Hotspot && c.HotspotFraction <= 0 {
		// The zero value is rejected rather than silently replaced;
		// Default() resolves the 0.1 default.
		return fmt.Errorf("config: hotspot traffic needs a positive fraction, got %g (Default() carries 0.1)", c.HotspotFraction)
	}
	if c.Dest == Transpose && c.Width != c.Height {
		// (x,y) -> (y,x) is only a permutation of a square mesh; on a
		// rectangular one some nodes would receive double traffic and
		// others none.
		return fmt.Errorf("config: transpose traffic needs a square mesh, got %dx%d", c.Width, c.Height)
	}
	if (c.Arch == DAMQ || c.Arch == FCCB) && c.BufferSlots < c.VCs {
		// A shared pool smaller than the fixed VC count would leave
		// VCs that can never hold a flit.
		return fmt.Errorf("config: %v needs at least as many slots (%d) as VCs (%d)", c.Arch, c.BufferSlots, c.VCs)
	}
	if c.NeedsEscape() {
		why := "adaptive routing"
		if c.Torus {
			why = "a torus"
		}
		if c.EscapeVCs < 1 {
			return fmt.Errorf("config: %s requires at least one escape VC", why)
		}
		if c.EscapeVCs >= c.MaxVCs() {
			return fmt.Errorf("config: escape VCs (%d) must leave at least one regular VC out of %d", c.EscapeVCs, c.MaxVCs())
		}
		if c.DeadlockThreshold < 1 {
			return fmt.Errorf("config: deadlock threshold must be positive, got %d", c.DeadlockThreshold)
		}
	}
	if c.Arch == DAMQ && c.DAMQDelay < 0 {
		return fmt.Errorf("config: DAMQ delay cannot be negative, got %d", c.DAMQDelay)
	}
	if err := c.Faults.validate(c); err != nil {
		return err
	}
	if err := c.Txn.validate(c); err != nil {
		return err
	}
	if k := c.VCKinds(); c.Arch == ViChaR && k > 1 && c.BufferSlots <= k {
		// One slot per VC kind is carved out of the unified pool as that
		// kind's grant reserve; at least one shared slot must remain.
		return &RangeError{Field: "BufferSlots", Value: c.BufferSlots, Min: k + 1, Max: MaxBufferSlots}
	}
	return nil
}

// Label returns a compact identifier such as "ViC-16" or "GEN-16"
// matching the paper's graph legends.
func (c *Config) Label() string {
	return fmt.Sprintf("%s-%d", c.Arch, c.BufferSlots)
}
