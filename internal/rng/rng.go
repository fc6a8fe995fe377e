// Package rng wraps math/rand's seeded generator in a draw-counting
// shim so a stream's exact position can be captured as (seed, draws)
// and restored by fast-forwarding a freshly seeded source — the basis
// of the simulator's checkpoint/restore contract for random streams.
//
// The count is taken at the *source* level (one increment per
// underlying generator step), not at the API level: rand.Rand methods
// such as Int63n consume a variable number of source steps (rejection
// sampling), so only the source count makes fast-forward exact. Every
// source step of math/rand's generator advances its state identically
// whether drawn through Int63 or Uint64, so replaying N Uint64 calls
// lands the restored stream on the same state as the saved one.
package rng

import (
	"fmt"
	"math/rand"

	"vichar/internal/snap"
)

// countingSource wraps a rand.Source64 and counts generator steps.
type countingSource struct {
	src   rand.Source64
	draws uint64
}

func (c *countingSource) Int63() int64 { c.draws++; return c.src.Int63() }

func (c *countingSource) Uint64() uint64 { c.draws++; return c.src.Uint64() }

func (c *countingSource) Seed(seed int64) { c.src.Seed(seed); c.draws = 0 }

// Stream is a deterministic random stream identified by (seed, draw
// count). Its sequence is bit-identical to
// rand.New(rand.NewSource(seed)): the shim only counts.
type Stream struct {
	src  countingSource
	rnd  *rand.Rand
	seed int64
}

// New returns a stream seeded like rand.New(rand.NewSource(seed)).
func New(seed int64) *Stream {
	s := &Stream{seed: seed}
	src, ok := rand.NewSource(seed).(rand.Source64)
	if !ok {
		// rand.NewSource has returned a Source64 since Go 1.8; this is a
		// construction-time toolchain assumption, not a runtime state.
		panic(fmt.Sprintf("rng: rand.NewSource(%d) does not implement Source64", seed))
	}
	s.src.src = src
	s.rnd = rand.New(&s.src)
	return s
}

// maxDrawsPerCycle bounds how many generator steps one per-node stream
// consumes per simulated cycle: the traffic and transaction layers
// draw a handful of variates per node per cycle, and math/rand's
// rejection loops add a step with probability below 2^-31 each.
const maxDrawsPerCycle = 64

// State walks the stream's position — its draw count — for a
// checkpoint taken at cycle now. Loading needs a stream freshly
// constructed with the same seed, like every other load: it sits at or
// before the saved position (construction may already have drawn), and
// the rest of the way is replayed one step at a time, so the count must
// be one a stream can have reached by then.
func (s *Stream) State(c *snap.Codec, now int64) {
	draws := s.src.draws
	c.U64(&draws)
	if draws < s.src.draws || draws > maxDrawsPerCycle*uint64(max(now, 0)+1) {
		c.Failf("rng: snapshot stream has %d draws at cycle %d, constructed with %d", draws, now, s.src.draws)
	}
	if c.Err() == nil {
		for ; s.src.draws < draws; s.src.draws++ {
			s.src.src.Uint64()
		}
	}
}

// Seed returns the seed the stream was created with.
func (s *Stream) Seed() int64 { return s.seed }

// Draws returns the number of generator steps consumed so far; together
// with Seed it fully identifies the stream's position.
func (s *Stream) Draws() uint64 { return s.src.draws }

// Float64 returns a uniform variate in [0, 1).
func (s *Stream) Float64() float64 { return s.rnd.Float64() }

// Intn returns a uniform variate in [0, n); it panics when n <= 0,
// exactly like rand.Intn.
func (s *Stream) Intn(n int) int { return s.rnd.Intn(n) }

// Int63n returns a uniform variate in [0, n); it panics when n <= 0,
// exactly like rand.Int63n.
func (s *Stream) Int63n(n int64) int64 { return s.rnd.Int63n(n) }
