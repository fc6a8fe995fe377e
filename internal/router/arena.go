package router

import (
	"vichar/internal/arbiter"
	"vichar/internal/config"
	"vichar/internal/routing"
	"vichar/internal/soa"
	"vichar/internal/topology"
)

// Arena is the router layer's view of the network-owned
// struct-of-arrays backing store (DESIGN.md §10): the shared typed
// pools of internal/soa plus router-private pools for VC pipeline
// state and arbiter banks. The network builds one per simulation and
// threads it through NewIn / NewCreditViewIn in ascending router-id
// order, so the hot per-(router, port, VC) state — UBS slots and
// bitmaps, control-table links, credit counters, VC state machines,
// arbiter pointers, scan masks — lands in construction order on one
// contiguous slab.
//
// A nil *Arena degrades every take to a plain allocation; standalone
// routers (unit tests) need no pool.
type Arena struct {
	soa    *soa.Arena
	vcs    *soa.Pool[vcState]
	routes *soa.Pool[uint32] // packed SA routes (inputPort.outInfo)
	rrs    *soa.Pool[arbiter.RoundRobin]
	// tables is the network-wide route memoization (one per arena, not
	// per router): every router's RC stage reads the same flat byte
	// tables, carved from the soa byte pool.
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

	// Per input port: the buffer. Only the ViChaR UBS is arena-backed;
	// the fixed organizations keep their own per-VC FIFO rings.
	inPorts := nodes * p
	if cfg.Arch == config.ViChaR {
		slots := cfg.BufferSlots
		flits += inPorts * slots               // UBS slot array
		int64s += inPorts * v                  // first-readable stamp per VC row
		words += inPorts * ((slots + 63) / 64) // slot availability tracker
		int16s += inPorts * (slots + 3*v)      // control-table links + head/tail/count
	}

	// Per input port: the three scan masks (VC pipeline state and the
	// packed (outPort, outVC) routes have their own pools below).
	words += inPorts * 3 * w

	// Per router: the activity record's four per-port counter rows.
	words += nodes * 4 * p

	// Per router: arbiter banks (vaS1, saS1 over VCs; vaS2, saS2 over
	// ports; the generic organization adds a per-output-VC stage 2).
	rrs := nodes * 4 * p
	if cfg.Arch != config.ViChaR {
		rrs += nodes * p * v
	}

	// Per credit view.
	switch cfg.Arch {
	case config.Generic:
		int16s += views * cfg.VCs // credits
		bools += views * cfg.VCs  // open
	case config.ViChaR:
		int16s += views * v // held
		bools += views * v  // resFree
		if k := cfg.VCKinds(); k > 1 {
			bools += views * k // per-kind grant reserves
		}
		words += views * w // VC availability tracker
	case config.DAMQ, config.FCCB:
		int16s += views * cfg.VCs    // held
		bools += views * 2 * cfg.VCs // resFree + open
	}

	// The network-wide route memoization tables (DESIGN.md §10).
	route := routeFor(cfg)
	bytes := routing.TableBytes(route, mesh)

	a := &Arena{
		soa:    soa.NewArena(flits, int16s, int64s, words, bools, bytes),
		vcs:    soa.NewPool[vcState](inPorts * v),
		routes: soa.NewPool[uint32](inPorts * v),
		rrs:    soa.NewPool[arbiter.RoundRobin](rrs),
	}
	a.tables = routing.NewTablesIn(a.soa, route, mesh)
	return a
}

// Tables returns the arena's shared route-memoization tables (nil for
// a nil arena; NewIn then builds per-router tables).
func (a *Arena) Tables() *routing.Tables {
	if a == nil {
		return nil
	}
	return a.tables
}

// Soa returns the shared typed pools (nil for a nil arena).
func (a *Arena) Soa() *soa.Arena {
	if a == nil {
		return nil
	}
	return a.soa
}

// Overflow sums fallback allocations across all pools; nonzero means
// the sizing formula undershot.
func (a *Arena) Overflow() int {
	if a == nil {
		return 0
	}
	return a.soa.Overflow() + a.vcs.Overflow() + a.routes.Overflow() + a.rrs.Overflow()
}

// takeVCs carves n VC state machines (nil-arena safe).
func (a *Arena) takeVCs(n int) []vcState {
	if a == nil {
		return make([]vcState, n)
	}
	return a.vcs.Take(n)
}

// takeRoutes carves n packed SA routes (nil-arena safe).
func (a *Arena) takeRoutes(n int) []uint32 {
	if a == nil {
		return make([]uint32, n)
	}
	return a.routes.Take(n)
}

// takeBank carves a round-robin arbiter bank (nil-arena safe),
// mirroring arbiter.NewRoundRobinBank.
func (a *Arena) takeBank(count, inputs int) []arbiter.RoundRobin {
	if a == nil {
		return arbiter.NewRoundRobinBank(count, inputs)
	}
	bank := a.rrs.Take(count)
	arbiter.InitBank(bank, inputs)
	return bank
}

// maskWords returns the uint64 words needed for one bit per VC.
func maskWords(vcs int) int { return (vcs + 63) / 64 }
