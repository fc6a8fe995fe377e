// Package rng is the simulator's deterministic randomness: one mixer,
// Mix (the SplitMix64 finalizer of Steele, Lea and Flood, OOPSLA
// 2014), and a Stream built on it. Draw n of a stream keyed k is
// Mix(k + n·γ) with γ the golden-ratio increment, so a stream is
// SplitMix64 and its position is one counter. The fault model hashes
// resource identities through the same Mix.
//
// A stream's position is (key, draws): the count is of mixer calls,
// not of API calls, because Intn rejects and redraws. State saves the
// count and a restore loads it — a counter-based stream needs no
// replay to reach a position.
package rng

import (
	"vichar/internal/snap"
)

// gamma is SplitMix64's increment, 2⁶⁴/φ rounded to odd.
const gamma = 0x9e3779b97f4a7c15

// Mix is the SplitMix64 finalizer: a bijective mixer whose output
// passes statistical randomness tests, usable as a stateless
// counter-based generator.
func Mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Stream is a deterministic random stream identified by (key, draw
// count); New(seed) yields the sequence of splitmix64.c seeded with
// seed. The zero value is the stream of seed 0.
type Stream struct {
	key, draws uint64
}

// New returns the stream of seed.
func New(seed int64) *Stream {
	s := new(Stream)
	s.Init(seed)
	return s
}

// Init seeds s in place and resets its draw count.
func (s *Stream) Init(seed int64) { *s = Stream{key: uint64(seed)} }

// next returns the next 64-bit draw.
func (s *Stream) next() uint64 {
	s.draws++
	return Mix(s.key + s.draws*gamma)
}

// maxDrawsPerCycle bounds how many draws one per-node stream consumes
// per simulated cycle: the traffic and transaction layers draw a
// handful of variates per node per cycle, and Intn's rejection adds a
// draw with probability below 2⁻³¹ each.
const maxDrawsPerCycle = 64

// State walks the stream's position — its draw count — for a
// checkpoint taken at cycle now. Loading needs a stream freshly
// constructed with the same seed, like every other load: it sits at or
// before the saved position (construction may already have drawn), and
// the count must be one a stream can have reached by then.
func (s *Stream) State(c *snap.Codec, now int64) {
	draws := s.draws
	c.U64(&draws)
	if draws < s.draws || draws > maxDrawsPerCycle*uint64(max(now, 0)+1) {
		c.Failf("rng: snapshot stream has %d draws at cycle %d, constructed with %d", draws, now, s.draws)
	}
	if c.Err() == nil {
		s.draws = draws
	}
}

// Draws returns the number of draws consumed so far; together with the
// seed it was initialised with it fully identifies the stream's
// position.
func (s *Stream) Draws() uint64 { return s.draws }

// Float64 returns a uniform variate in [0, 1): the top 53 bits of one
// draw, scaled by 2⁻⁵³, so it is never 1.
func (s *Stream) Float64() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

// Intn returns a uniform variate in [0, n); it panics when n <= 0. It
// rejects draws whose top 63 bits fall in the top partial range of n
// and reduces the rest modulo n.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		//vichar:invariant a non-positive bound is a caller's programming error; callers pass counts construction makes positive
		panic("rng: invalid argument to Intn")
	}
	limit := 1<<63 - 1 - (1<<63)%uint64(n)
	v := s.next() >> 1
	for v > limit {
		v = s.next() >> 1
	}
	return int(v % uint64(n))
}
