package txn

import (
	"vichar/internal/snap"
)

// State walks the engine for a checkpoint taken at cycle now: global
// transaction counts and the latency histogram, each requester's rng
// position, window and pending table (IDs ascending), and each
// responder's admission and service-queue state. Node roles and stream
// seeds are derived from the configuration, so only per-role payloads
// travel; loading needs an engine built with New over the same
// configuration that produced the snapshot.
func (e *Engine) State(c *snap.Codec, now int64) {
	c.Section("txn")
	c.I64(&e.issued)
	c.I64(&e.retired)
	// A measured latency is at most now, and there is one per retired
	// transaction at most.
	e.latency.State(c, e.retired, now)
	for _, id := range e.requesters {
		q := &e.reqs[id]
		q.stream.State(c, now)
		c.Int(&q.flight)
		c.Int(&q.issued)
		ids := e.pendingIDs(id)
		n := c.Len(len(ids), q.flight, "txn: pending entries of a requester")
		if c.Loading() {
			clear(q.pending)
			ids = make([]uint64, n)
		}
		for i := range ids {
			created := q.pending[ids[i]]
			c.U64(&ids[i])
			c.I64(&created)
			if c.Loading() {
				q.pending[ids[i]] = created
			}
		}
	}
	for _, id := range e.targets {
		r := e.resps[id]
		c.Int(&r.reserved)
		c.Int(&r.egress)
		snap.Seq(c, &r.queue, r.depth, "txn: queued services of a responder", func(s *service) {
			c.I64(&s.readyAt)
			c.U8(&s.kind)
			c.U64(&s.req)
			c.Int(&s.dst)
		})
	}
}
