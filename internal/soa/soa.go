// Package soa provides the struct-of-arrays backing store for the
// simulator's hot per-(router, port, VC) state (DESIGN.md §10).
//
// The tick path touches a handful of small per-VC arrays every cycle
// — buffer slots and links, readiness stamps, credit counters, VC-grant
// flags, token bitmaps, live-VC masks. Allocated object-by-object they scatter across the
// heap and every router tick becomes a pointer chase; drawn from one
// network-owned contiguous slab they pack in construction order
// (router-major, then port, then VC), so the state one router's tick
// reads sits on a handful of cache lines. The objects (buffers.Queues,
// core.Tracker, router credit views, VC state machines) keep their APIs
// and are views over slab-owned memory.
//
// A Pool is a bump allocator: construction-time Take calls carve
// subslices off one backing array and the pool is never freed or
// reused piecemeal — the simulator's hot state lives exactly as long
// as the Network that owns it. Pools are not thread-safe; all Takes
// happen during single-threaded network construction.
package soa

// Pool is a bump allocator over one contiguous backing array of T.
// The zero Pool (or a nil *Pool) is valid and degrades every Take to
// a plain allocation, which is what keeps arena-free construction —
// unit tests building a lone Router or buffer — working unchanged.
type Pool[T any] struct {
	backing []T
	off     int
	// overflow counts elements served by fallback allocations after
	// the backing array ran out; diagnostics for sizing formulas.
	overflow int
}

// NewPool returns a pool with capacity for n elements.
func NewPool[T any](n int) *Pool[T] {
	if n < 0 {
		n = 0
	}
	return &Pool[T]{backing: make([]T, n)}
}

// Take carves the next n zero-valued elements off the pool. When the
// pool is nil or exhausted it falls back to a fresh allocation — a
// sizing shortfall costs locality, never correctness.
func (p *Pool[T]) Take(n int) []T {
	if n <= 0 {
		return nil
	}
	if p == nil || p.off+n > len(p.backing) {
		if p != nil {
			p.overflow += n
		}
		return make([]T, n)
	}
	s := p.backing[p.off : p.off+n : p.off+n]
	p.off += n
	return s
}

// Used returns the number of elements taken from the backing array.
func (p *Pool[T]) Used() int {
	if p == nil {
		return 0
	}
	return p.off
}

// Overflow returns the number of elements served outside the backing
// array; nonzero means the sizing formula undershot.
func (p *Pool[T]) Overflow() int {
	if p == nil {
		return 0
	}
	return p.overflow
}
