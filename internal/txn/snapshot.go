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
		snap.Seq(c, &q.pending, q.flight, "txn: pending entries of a requester", func(p *pending) {
			c.U64(&p.id)
			c.I64(&p.created)
		})
		for i := 1; c.Loading() && i < len(q.pending); i++ {
			if a, b := q.pending[i-1].id, q.pending[i].id; a >= b {
				c.Failf("txn: pending request IDs of node %d not ascending: %d then %d", id, a, b)
				break
			}
		}
	}
	for _, id := range e.targets {
		r := &e.resps[id]
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
