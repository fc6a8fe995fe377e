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

// state walks one stored event as the Event it stands for, so the
// snapshot bytes are those of the eight-field walk above. seq is the
// Seq the event's place implies: loading, the stored one must equal
// it, and every other field must fit the record.
func (r *record) state(c *snap.Codec, seq uint64) {
	e := r.event(seq)
	e.state(c)
	if !c.Loading() {
		return
	}
	// Failf under a test, not Check: the arguments of a call per event
	// would be boxed whether or not it fails.
	if *r = pack(e); e.Seq != seq {
		c.Failf("metrics: snapshot event carries seq %d where its position implies %d", e.Seq, seq)
	} else if r.event(seq) != e {
		c.Failf("metrics: snapshot event %+v has a field outside the stored record's range", e)
	}
}

// State walks the recorder's undrained events, which have no Seq yet
// and so carry zero.
func (rec *Recorder) State(c *snap.Codec) {
	c.Section("recorder")
	snap.Seq(c, &rec.events, math.MaxInt, "metrics: staged-event count", func(r *record) { r.state(c, 0) })
}

// State walks the tracer's total-event counter, eviction count and
// ring, slot by slot; loading needs a tracer of the same capacity.
// The eviction count and the ring's length are derived from the other
// two, so a load only checks them.
func (t *Tracer) State(c *snap.Codec) {
	t.reg.mu.Lock()
	defer t.reg.mu.Unlock()
	c.Section("tracer")
	c.U64(&t.next)
	dropped := t.next - uint64(len(t.buf))
	c.U64(&dropped)
	n := c.Len(len(t.buf), t.cap, "metrics: snapshot ring event count")
	c.Check(uint64(n) == min(t.next, uint64(t.cap)) && dropped == t.next-uint64(n),
		"metrics: snapshot ring holds %d events and evicted %d, of %d recorded into a capacity of %d", n, dropped, t.next, t.cap)
	if c.Loading() {
		t.buf = make([]record, n, t.cap)
	}
	for i := 0; i < n && c.Err() == nil; i++ {
		t.buf[i].state(c, t.seqAt(i))
	}
}
