package stats

import (
	"math"

	"vichar/internal/snap"
)

// This file is the checkpoint walk of the stats layer. The collector
// is pure accumulated state — every field except the measurement
// protocol (which re-derives from the configuration) travels, floats
// by their IEEE-754 bits, so a restored run's Finalize output is
// byte-identical to the straight-through run's.

// State walks the counter block.
func (c *Counters) State(s *snap.Codec) {
	s.U64(&c.BufferWrites)
	s.U64(&c.BufferReads)
	s.U64(&c.XbarTraversals)
	s.U64(&c.LinkTraversals)
	s.U64(&c.VAOps)
	s.U64(&c.SAOps)
	s.U64(&c.VCGrants)
	s.U64(&c.FlitDrops)
	s.U64(&c.FlitCorrupts)
	s.U64(&c.Retransmits)
	s.U64(&c.StallCycles)
	s.U64(&c.EscapeReroutes)
}

// State walks the collector's accumulated measurements; loading needs
// a collector constructed with the same protocol and node count.
func (c *Collector) State(s *snap.Codec) {
	s.Section("collector")
	s.I64(&c.ejected)
	s.I64(&c.measured)
	s.F64(&c.latencySum)
	s.F64(&c.queueSum)
	s.I64sVar(&c.latencies)
	s.I64(&c.ejectedFlits)
	s.Bool(&c.measuring)
	s.Bool(&c.opened)
	if s.Loading() && c.opened {
		c.reserveLatencies()
	}
	s.I64(&c.measureStart)
	s.I64(&c.measureEnd)
	s.F64(&c.occSum)
	s.I64(&c.occSamples)
	s.F64(&c.vcSum)
	s.I64(&c.vcSamples)
	s.F64s(c.perNodeSum)
	s.I64(&c.perNodeCount)
	snap.Seq(s, &c.series, math.MaxInt, "stats: series length", func(p *SeriesPoint) {
		s.I64(&p.Cycle)
		s.F64(&p.Value)
	})
	c.counters.State(s)
}

// State walks the histogram as its counts, then — when there are any —
// its smallest sample; the sample count and sum re-derive from them.
// An empty histogram is therefore the four bytes of an empty []int64.
// maxN bounds the samples and maxV the largest of them, so a loaded
// histogram's derivation cannot overflow its count and a later Add
// cannot index outside its counts.
func (h *Histogram) State(s *snap.Codec, maxN, maxV int64) {
	s.I64sVar(&h.counts)
	var n, sum int64
	if last := len(h.counts) - 1; last >= 0 {
		s.I64(&h.lo)
		s.Check(h.lo >= 0 && h.lo <= maxV-int64(last) && h.counts[0] > 0 && h.counts[last] > 0,
			"stats: histogram range [%d, %d] in snapshot, want both ends counted within [0, %d]", h.lo, h.lo+int64(last), maxV)
		for i, k := range h.counts {
			if k < 0 || k > maxN-n {
				s.Failf("stats: histogram holds more than %d samples", maxN)
				break
			}
			n += k
			sum += (h.lo + int64(i)) * k
		}
	}
	if s.Loading() {
		h.n, h.sum = n, sum
	}
}
