// Package rng is the simulator's deterministic random stream: Go's
// math/rand generator (Mitchell and Reeds' additive lagged-Fibonacci
// register, 607 words, tap 273), reimplemented so that a stream counts
// its own steps, lives by value in its owner's slab, and seeds without
// math/rand's serial walk. A Stream produces exactly the sequence of
// rand.New(rand.NewSource(seed)) for every seed, through Float64, Intn
// and Int63n, which keep math/rand's reduction and rejection rules.
//
// Copied from Go: the seeding table (cooked.go, math/rand's rngCooked)
// under Go's BSD-style licence, reproduced in that file. The register
// step, the seed normalisation and the method bodies follow
// math/rand's rng.go and rand.go.
//
// Seeding by table is exact. math/rand fills word i of the register
// from three consecutive states x[21+3i], x[22+3i], x[23+3i] of the
// Lehmer recurrence x ← 48271·x mod (2³¹−1) started at the normalised
// seed x₀. The recurrence has the closed form x[k] = 48271^k · x₀ mod
// (2³¹−1), so with the powers 48271^k precomputed once (powers) every
// state is one modular product, reduced by the Mersenne identity
// 2³¹ ≡ 1 instead of a division. math/rand's step (Schrage's method)
// and this product yield the same residue in [1, 2³¹−2] — the modulus
// is prime and x₀ is not a multiple of it, so no state is 0 — and so
// every word, and therefore every draw, is identical;
// the words no longer depend on each other, so the CPU overlaps them
// instead of waiting on a 1 841-step chain.
//
// A stream's position is (seed, draws): the count is of register steps,
// not of API calls, because Intn and Int63n reject and redraw. State
// saves the count and restores by replaying steps on a fresh stream —
// the basis of the simulator's checkpoint/restore contract for random
// streams.
package rng

import (
	"vichar/internal/snap"
)

const (
	regLen  = 607 // register words
	regTap  = 273 // feedback tap
	lehmerA = 48271
	lehmerM = 1<<31 - 1 // Mersenne prime modulus of the seeding recurrence

	// seedSteps is how far math/rand's seeding walks the recurrence:
	// 20 discarded states, then three per register word.
	seedSteps = 20 + 3*regLen
)

// powers[k] is 48271^k mod (2³¹−1), the seeding recurrence's k-step
// multiplier.
var powers = func() (p [seedSteps + 1]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = mulMod(p[k-1], lehmerA)
	}
	return p
}()

// mulMod returns a·b mod (2³¹−1) for a, b < 2³¹. The product is below
// 2⁶², and 2³¹ ≡ 1 folds its high half onto its low half.
func mulMod(a, b uint64) uint64 {
	p := a * b
	r := p&lehmerM + p>>31
	if r >= lehmerM {
		r -= lehmerM
	}
	return r
}

// Stream is a deterministic random stream identified by (seed, draw
// count). Its sequence is bit-identical to
// rand.New(rand.NewSource(seed)). The zero value is not seeded: use
// New, or Init on a Stream held in a slab.
type Stream struct {
	tap, feed int
	vec       [regLen]int64
	draws     uint64
}

// New returns a stream seeded like rand.New(rand.NewSource(seed)).
func New(seed int64) *Stream {
	s := new(Stream)
	s.Init(seed)
	return s
}

// Init seeds s in place, exactly as math/rand's Seed would, and resets
// its draw count.
func (s *Stream) Init(seed int64) {
	s.draws = 0
	s.tap, s.feed = 0, regLen-regTap
	x0 := seed % lehmerM
	if x0 < 0 {
		x0 += lehmerM
	}
	if x0 == 0 {
		x0 = 89482311
	}
	x := uint64(x0)
	for i := range s.vec {
		k := 21 + 3*i
		u := int64(mulMod(powers[k], x)) << 40
		u ^= int64(mulMod(powers[k+1], x)) << 20
		u ^= int64(mulMod(powers[k+2], x))
		s.vec[i] = u ^ cooked[i]
	}
}

// step advances the register once: math/rand's rngSource.Uint64.
func (s *Stream) step() uint64 {
	s.draws++
	s.tap--
	if s.tap < 0 {
		s.tap += regLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += regLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

func (s *Stream) int63() int64 { return int64(s.step() & (1<<63 - 1)) }

func (s *Stream) int31() int32 { return int32(s.int63() >> 32) }

// maxDrawsPerCycle bounds how many generator steps one per-node stream
// consumes per simulated cycle: the traffic and transaction layers
// draw a handful of variates per node per cycle, and the rejection
// loops add a step with probability below 2^-31 each.
const maxDrawsPerCycle = 64

// State walks the stream's position — its draw count — for a
// checkpoint taken at cycle now. Loading needs a stream freshly
// constructed with the same seed, like every other load: it sits at or
// before the saved position (construction may already have drawn), and
// the rest of the way is replayed one step at a time, so the count must
// be one a stream can have reached by then.
func (s *Stream) State(c *snap.Codec, now int64) {
	draws := s.draws
	c.U64(&draws)
	if draws < s.draws || draws > maxDrawsPerCycle*uint64(max(now, 0)+1) {
		c.Failf("rng: snapshot stream has %d draws at cycle %d, constructed with %d", draws, now, s.draws)
	}
	if c.Err() == nil {
		for s.draws < draws {
			s.step()
		}
	}
}

// Draws returns the number of generator steps consumed so far; together
// with the seed it was initialised with it fully identifies the
// stream's position.
func (s *Stream) Draws() uint64 { return s.draws }

// Float64 returns a uniform variate in [0, 1). Like math/rand it
// divides a 63-bit draw by 2⁶³ and draws again in the rare case the
// quotient rounds up to 1.
func (s *Stream) Float64() float64 {
	for {
		if f := float64(s.int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// Intn returns a uniform variate in [0, n); it panics when n <= 0,
// exactly like rand.Intn, and takes the same 31- or 63-bit path.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		//vichar:invariant a non-positive bound is a caller's programming error, as in math/rand; callers pass counts construction makes positive
		panic("rng: invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(s.int31n(int32(n)))
	}
	return int(s.Int63n(int64(n)))
}

// Int63n returns a uniform variate in [0, n); it panics when n <= 0,
// exactly like rand.Int63n.
func (s *Stream) Int63n(n int64) int64 {
	if n <= 0 {
		//vichar:invariant a non-positive bound is a caller's programming error, as in math/rand
		panic("rng: invalid argument to Int63n")
	}
	if n&(n-1) == 0 {
		return s.int63() & (n - 1)
	}
	limit := int64(1<<63 - 1 - (1<<63)%uint64(n))
	v := s.int63()
	for v > limit {
		v = s.int63()
	}
	return v % n
}

// int31n is rand.Int31n for n > 0: mask a power of two, otherwise
// reject the top partial range and reduce.
func (s *Stream) int31n(n int32) int32 {
	if n&(n-1) == 0 {
		return s.int31() & (n - 1)
	}
	limit := int32(1<<31 - 1 - (1<<31)%uint32(n))
	v := s.int31()
	for v > limit {
		v = s.int31()
	}
	return v % n
}
