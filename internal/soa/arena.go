package soa

import "vichar/internal/flit"

// Arena bundles the typed pools the simulator's hot state draws from:
// flit slot arrays, 16-bit bookkeeping (buffer slot links and queue
// registers, credit counters — config.Validate bounds every slot and
// VC count by config.MaxBufferSlots, so they fit), int64 cycle stamps
// and uint64 bitmap words (token trackers, VC masks). One Arena is
// built per Network with capacities from a
// closed-form sizing formula; every router, buffer and credit view
// then takes its per-(router, port, VC) arrays from it in ascending
// router-id order, which is what lays the whole mesh's tick-path state
// out contiguously (DESIGN.md §10).
//
// A nil *Arena is valid everywhere an Arena is accepted and degrades
// every take to a plain allocation — standalone construction (unit
// tests building one Router or buffer) needs no pool.
type Arena struct {
	Flits  *Pool[*flit.Flit]
	Int16s *Pool[int16]
	Int64s *Pool[int64]
	Words  *Pool[uint64]
	Bools  *Pool[bool]
	Bytes  *Pool[uint8]
}

// NewArena returns an arena with the given per-pool capacities.
func NewArena(flits, int16s, int64s, words, bools, bytes int) *Arena {
	return &Arena{
		Flits:  NewPool[*flit.Flit](flits),
		Int16s: NewPool[int16](int16s),
		Int64s: NewPool[int64](int64s),
		Words:  NewPool[uint64](words),
		Bools:  NewPool[bool](bools),
		Bytes:  NewPool[uint8](bytes),
	}
}

// TakeFlits carves n flit slots (nil-arena safe).
func (a *Arena) TakeFlits(n int) []*flit.Flit {
	if a == nil {
		return make([]*flit.Flit, n)
	}
	return a.Flits.Take(n)
}

// TakeInt16s carves n 16-bit slot/VC-indexed entries (nil-arena safe).
func (a *Arena) TakeInt16s(n int) []int16 {
	if a == nil {
		return make([]int16, n)
	}
	return a.Int16s.Take(n)
}

// TakeInt64s carves n int64 cycle stamps (nil-arena safe).
func (a *Arena) TakeInt64s(n int) []int64 {
	if a == nil {
		return make([]int64, n)
	}
	return a.Int64s.Take(n)
}

// TakeWords carves n bitmap words (nil-arena safe).
func (a *Arena) TakeWords(n int) []uint64 {
	if a == nil {
		return make([]uint64, n)
	}
	return a.Words.Take(n)
}

// TakeBools carves n bools (nil-arena safe).
func (a *Arena) TakeBools(n int) []bool {
	if a == nil {
		return make([]bool, n)
	}
	return a.Bools.Take(n)
}

// TakeBytes carves n bytes (nil-arena safe); the route-memoization
// tables of internal/routing live here.
func (a *Arena) TakeBytes(n int) []uint8 {
	if a == nil {
		return make([]uint8, n)
	}
	return a.Bytes.Take(n)
}

// Overflow sums the pools' fallback allocations; nonzero means the
// sizing formula undershot somewhere.
func (a *Arena) Overflow() int {
	if a == nil {
		return 0
	}
	return a.Flits.Overflow() + a.Int16s.Overflow() + a.Int64s.Overflow() +
		a.Words.Overflow() + a.Bools.Overflow() + a.Bytes.Overflow()
}
