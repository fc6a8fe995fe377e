package router

import (
	"vichar/internal/arbiter"
	"vichar/internal/buffers"
	"vichar/internal/config"
	"vichar/internal/routing"
	"vichar/internal/soa"
	"vichar/internal/topology"
)

// Arena is the router layer's view of the network-owned
// struct-of-arrays backing store (DESIGN.md §10): the shared typed
// pools of internal/soa plus router-private pools for VC pipeline
// state, arbiter banks, per-router scratch and the objects themselves
// — routers, port descriptors, buffers and credit views. The network
// builds one per simulation and threads it through NewIn /
// NewCreditViewIn / NewSinkViewIn in ascending router-id order, so the
// hot per-(router, port, VC) state — buffer slots and links, readiness
// stamps, credit counters, VC state machines, arbiter pointers,
// scan-mask blocks — lands in construction order on one contiguous
// slab, and building a network costs a fixed number of allocations
// whatever its size.
//
// A nil *Arena degrades every take to a plain allocation; standalone
// routers (unit tests) need no pool.
type Arena struct {
	soa    *soa.Arena
	vcs    *soa.Pool[vcState]
	routes *soa.Pool[uint32] // packed SA routes (inputPort.outInfo)
	rrs    *soa.Pool[arbiter.RoundRobin]

	// The objects, one slab per type.
	routers *soa.Pool[Router]
	inPorts *soa.Pool[inputPort]
	outs    *soa.Pool[outputPort]
	queues  *soa.Pool[buffers.Queues]
	generic *soa.Pool[genericView]
	shared  *soa.Pool[sharedView]
	vichar  *soa.Pool[vicharView]
	sinks   *soa.Pool[sinkView]

	// Per-router scratch (Router.saNominee to vaNext; the uint64 rows
	// come from the soa word pool).
	ints  *soa.Pool[int]
	int32 *soa.Pool[int32]
	noms  *soa.Pool[vaNominee]

	// tables is the network-wide route computation (one per arena, not
	// per router): every router's RC stage reads the same per-node
	// coordinate table, carved from the soa int16 pool.
	tables *routing.Tables
}

// NewArena sizes an arena for `nodes` routers of the configuration
// plus the network's link credit views. The per-pool capacities are
// the closed-form sum of every take the construction path performs;
// TestArenaSizingExact pins the formula by asserting zero overflow.
func NewArena(cfg *config.Config, mesh topology.Mesh) *Arena {
	nodes := mesh.Nodes()
	p := cfg.Ports()
	v := cfg.MaxVCs()
	w := maskWords(v)

	// Inter-router links: one credit view per connected cardinal port.
	links := 0
	for id := 0; id < nodes; id++ {
		links += mesh.Degree(id)
	}
	// One view per inter-router link plus one NI view per node (the
	// ejection port's sink view holds no arrays).
	views := links + nodes

	var flits, int16s, int64s, words, bools int

	// Per input port: the buffer's slot pool (Validate makes a generic
	// port's VCs x VCDepth equal BufferSlots) with one successor link per
	// slot, head/tail/count and a first-readable stamp per queue, and a
	// DAMQ's read-port stamps.
	inPorts := nodes * p
	flits += inPorts * cfg.BufferSlots
	int16s += inPorts * (cfg.BufferSlots + 3*v)
	int64s += inPorts * v
	if cfg.Arch == config.DAMQ {
		int64s += inPorts * v
	}

	// Per router: the scan-mask block, one row of each kind per input
	// port (VC pipeline state and the packed (outPort, outVC) routes
	// have their own pools below).
	words += nodes * maskKinds * p * w

	// Per router: the activity record's four per-port counter rows.
	words += nodes * 4 * p

	// Per router: arbiter banks (vaS1, saS1 over VCs; vaS2, saS2 over
	// ports; the generic organization adds a per-output-VC stage 2).
	rrs := nodes * 4 * p
	if cfg.Arch != config.ViChaR {
		rrs += nodes * p * v
	}

	// Per router: the allocators' scratch — the request words, the
	// per-output-port stage-2 requests, the per-kind VA port masks and
	// ints per port for the SA nominees and the FreeSlots memo; the
	// fixed organizations' stage-2 groups add two flat id lists and
	// four chain arrays over every input VC.
	words += nodes * (maskWords(p*v) + p + 2*2*cfg.VCClasses())
	ints, int32s := nodes*2*p, 0
	if cfg.Arch != config.ViChaR {
		ints += nodes * 2 * p * v
		int32s = nodes * 4 * p * v
	}

	// Per credit view: the view object and its per-VC state.
	var generic, shared, vichar int
	switch cfg.Arch {
	case config.Generic:
		generic = views
		int16s += views * cfg.VCs // credits
		bools += views * cfg.VCs  // open
	case config.ViChaR:
		vichar = views
		int16s += views * v // held
		bools += views * v  // resFree
		if k := cfg.VCKinds(); k > 1 {
			bools += views * k // per-kind grant reserves
		}
		words += views * w // VC availability tracker
	case config.DAMQ, config.FCCB:
		shared = views
		int16s += views * cfg.VCs    // held
		bools += views * 2 * cfg.VCs // resFree + open
	}

	// The network-wide route computation's coordinate table (DESIGN.md
	// §10.6).
	int16s += routing.TableBytes(mesh) / 2

	a := &Arena{
		soa:    soa.NewArena(flits, int16s, int64s, words, bools),
		vcs:    soa.NewPool[vcState](inPorts * v),
		routes: soa.NewPool[uint32](inPorts * v),
		rrs:    soa.NewPool[arbiter.RoundRobin](rrs),

		routers: soa.NewPool[Router](nodes),
		inPorts: soa.NewPool[inputPort](inPorts),
		outs:    soa.NewPool[outputPort](inPorts),
		queues:  soa.NewPool[buffers.Queues](inPorts),
		generic: soa.NewPool[genericView](generic),
		shared:  soa.NewPool[sharedView](shared),
		vichar:  soa.NewPool[vicharView](vichar),
		sinks:   soa.NewPool[sinkView](nodes),

		ints:  soa.NewPool[int](ints),
		int32: soa.NewPool[int32](int32s),
		noms:  soa.NewPool[vaNominee](nodes * p),
	}
	a.tables = routing.NewTablesIn(a.soa, routeFor(cfg), mesh)
	return a
}

// Tables returns the arena's shared route computation (nil for a nil
// arena; NewIn then builds per-router tables).
func (a *Arena) Tables() *routing.Tables {
	if a == nil {
		return nil
	}
	return a.tables
}

// Overflow sums fallback allocations across all pools; nonzero means
// the sizing formula undershot.
func (a *Arena) Overflow() int {
	if a == nil {
		return 0
	}
	return a.soa.Overflow() + a.vcs.Overflow() + a.routes.Overflow() + a.rrs.Overflow() +
		a.routers.Overflow() + a.inPorts.Overflow() + a.outs.Overflow() + a.queues.Overflow() +
		a.generic.Overflow() + a.shared.Overflow() + a.vichar.Overflow() + a.sinks.Overflow() +
		a.ints.Overflow() + a.int32.Overflow() + a.noms.Overflow()
}

// orPlain returns a, or for a nil arena a zero Arena: its nil pools
// serve every take as a plain allocation (soa.Pool.Take), which is
// what standalone construction gets.
func (a *Arena) orPlain() *Arena {
	if a == nil {
		return &Arena{}
	}
	return a
}

// takeOne carves one zero-valued T (nil-pool safe, see soa.Pool.Take).
func takeOne[T any](p *soa.Pool[T]) *T { return &p.Take(1)[0] }

// takeBank carves a round-robin arbiter bank, mirroring
// arbiter.NewRoundRobinBank.
func (a *Arena) takeBank(count, inputs int) []arbiter.RoundRobin {
	bank := a.rrs.Take(count)
	arbiter.InitBank(bank, inputs)
	return bank
}

// maskWords returns the uint64 words needed for one bit per VC.
func maskWords(vcs int) int { return (vcs + 63) / 64 }
