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

// State walks the registry's gauge values; loading needs a registry
// with the same series registered in the same order. Safe against a
// concurrent exporter scrape.
func (r *Registry) State(c *snap.Codec) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c.Section("registry")
	c.F64s(r.gvals)
}

// state walks one stored event as the seven fields of the Event it
// stands for; its Seq is its place, not a field. Loading, every field
// must fit the record.
func (r *record) state(c *snap.Codec) {
	e := r.event(0)
	c.I64(&e.Cycle)
	c.U8((*uint8)(&e.Kind))
	c.U64(&e.Packet)
	c.Int(&e.Flit)
	c.Int(&e.Node)
	c.Int(&e.Port)
	c.Int(&e.VC)
	if !c.Loading() {
		return
	}
	// Failf under a test, not Check: the arguments of a call per event
	// would be boxed whether or not it fails.
	if *r = pack(e); r.event(0) != e {
		c.Failf("metrics: snapshot event %+v has a field outside the stored record's range", e)
	}
}

// State walks the recorder's undrained events.
func (rec *Recorder) State(c *snap.Codec) {
	c.Section("recorder")
	snap.Seq(c, &rec.events, math.MaxInt, "metrics: staged-event count", func(r *record) { r.state(c) })
}

// State walks the tracer's total-event counter and ring, slot by slot;
// loading needs a tracer of the same capacity. The ring holds the
// newest min(next, cap) events, and each one's Seq is implied by its
// slot, so neither the eviction count nor a Seq travels.
func (t *Tracer) State(c *snap.Codec) {
	t.reg.mu.Lock()
	defer t.reg.mu.Unlock()
	c.Section("tracer")
	c.U64(&t.next)
	n := c.Len(len(t.buf), t.cap, "metrics: snapshot ring event count")
	c.Check(uint64(n) == min(t.next, uint64(t.cap)),
		"metrics: snapshot ring holds %d events of %d recorded into a capacity of %d", n, t.next, t.cap)
	if c.Loading() {
		t.buf = make([]record, n, t.cap)
	}
	for i := 0; i < n && c.Err() == nil; i++ {
		t.buf[i].state(c)
	}
}
