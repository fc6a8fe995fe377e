package stats

import (
	"fmt"

	"vichar/internal/snap"
)

// This file implements the checkpoint half of the stats layer. The
// collector is pure accumulated state — every field except the
// measurement protocol (which re-derives from the configuration) is
// serialized, floats by their IEEE-754 bits, so a restored run's
// Finalize output is byte-identical to the straight-through run's.

// SaveState serializes the counter block.
func (c *Counters) SaveState(w *snap.Writer) {
	w.U64(c.BufferWrites)
	w.U64(c.BufferReads)
	w.U64(c.XbarTraversals)
	w.U64(c.LinkTraversals)
	w.U64(c.VAOps)
	w.U64(c.SAOps)
	w.U64(c.VCGrants)
	w.U64(c.FlitDrops)
	w.U64(c.FlitCorrupts)
	w.U64(c.Retransmits)
	w.U64(c.StallCycles)
	w.U64(c.EscapeReroutes)
}

// LoadState restores a counter block saved by SaveState.
func (c *Counters) LoadState(r *snap.Reader) error {
	c.BufferWrites = r.U64()
	c.BufferReads = r.U64()
	c.XbarTraversals = r.U64()
	c.LinkTraversals = r.U64()
	c.VAOps = r.U64()
	c.SAOps = r.U64()
	c.VCGrants = r.U64()
	c.FlitDrops = r.U64()
	c.FlitCorrupts = r.U64()
	c.Retransmits = r.U64()
	c.StallCycles = r.U64()
	c.EscapeReroutes = r.U64()
	return r.Err()
}

// SaveState serializes the collector's accumulated measurements.
func (c *Collector) SaveState(w *snap.Writer) {
	w.Section("collector")
	w.I64(c.ejected)
	w.I64(c.measured)
	w.F64(c.latencySum)
	w.F64(c.queueSum)
	w.I64s(c.latencies)
	w.I64(c.ejectedFlits)
	w.Bool(c.measuring)
	w.Bool(c.opened)
	w.I64(c.measureStart)
	w.I64(c.measureEnd)
	w.F64(c.occSum)
	w.I64(c.occSamples)
	w.F64(c.vcSum)
	w.I64(c.vcSamples)
	w.F64s(c.perNodeSum)
	w.I64(c.perNodeCount)
	w.Int(len(c.series))
	for _, p := range c.series {
		w.I64(p.Cycle)
		w.F64(p.Value)
	}
	c.counters.SaveState(w)
}

// LoadState restores measurements saved by SaveState into a collector
// constructed with the same protocol and node count.
func (c *Collector) LoadState(r *snap.Reader) error {
	if err := r.Section("collector"); err != nil {
		return err
	}
	c.ejected = r.I64()
	c.measured = r.I64()
	c.latencySum = r.F64()
	c.queueSum = r.F64()
	c.latencies = r.I64sAppend(c.latencies)
	c.ejectedFlits = r.I64()
	c.measuring = r.Bool()
	c.opened = r.Bool()
	if c.opened {
		c.reserveLatencies()
	}
	c.measureStart = r.I64()
	c.measureEnd = r.I64()
	c.occSum = r.F64()
	c.occSamples = r.I64()
	c.vcSum = r.F64()
	c.vcSamples = r.I64()
	r.F64sInto(c.perNodeSum)
	c.perNodeCount = r.I64()
	n := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if n < 0 {
		return fmt.Errorf("stats: negative series length %d in snapshot", n)
	}
	c.series = c.series[:0]
	for i := 0; i < n; i++ {
		c.series = append(c.series, SeriesPoint{Cycle: r.I64(), Value: r.F64()})
		if r.Err() != nil {
			return r.Err()
		}
	}
	return c.counters.LoadState(r)
}
