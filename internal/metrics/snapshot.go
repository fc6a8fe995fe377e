package metrics

import (
	"math"

	"vichar/internal/snap"
)

// This file is the checkpoint walk of the observability layer. Series
// descriptors re-register at construction time in the same order on
// restore, and counter values are derived state — the owners of the
// counters serialize them, and the network re-stores the view at the
// end of its load — so only the sampled gauges, each recorder's
// undrained events and the tracer's ring travel. Staged events are
// captured as-is — draining them early would change the drain
// interleaving and break the resumed run's byte-exact event stream.

// state walks one flit-lifecycle event.
func (e *Event) state(c *snap.Codec) {
	c.U64(&e.Seq)
	c.I64(&e.Cycle)
	c.U8((*uint8)(&e.Kind))
	c.U64(&e.Packet)
	c.Int(&e.Flit)
	c.Int(&e.Node)
	c.Int(&e.Port)
	c.Int(&e.VC)
}

// State walks the registry's gauge values; loading needs a registry
// with the same series registered in the same order. Safe against a
// concurrent exporter scrape.
func (r *Registry) State(c *snap.Codec) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c.Section("registry")
	c.F64s(r.gvals)
}

// State walks the recorder's undrained events.
func (rec *Recorder) State(c *snap.Codec) {
	c.Section("recorder")
	snap.Seq(c, &rec.events, math.MaxInt, "metrics: staged-event count", func(e *Event) { e.state(c) })
}

// State walks the tracer's total-event counter, eviction count and
// ring; loading needs a tracer of the same capacity.
func (t *Tracer) State(c *snap.Codec) {
	t.reg.mu.Lock()
	defer t.reg.mu.Unlock()
	c.Section("tracer")
	c.U64(&t.next)
	c.U64(&t.dropped)
	if c.Loading() {
		t.buf = t.ring()[:0]
	}
	snap.Seq(c, &t.buf, t.cap, "metrics: snapshot ring event count", func(e *Event) { e.state(c) })
}
