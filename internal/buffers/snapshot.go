package buffers

import (
	"vichar/internal/flit"
	"vichar/internal/snap"
)

// This file is the checkpoint walk of each fixed buffer organization:
// only mutable contents travel (flit references in FIFO order plus
// bookkeeping stamps), into a buffer freshly constructed with the same
// shape, reusing the existing queue backing arrays. Occupancy and the
// readiness stamps are derived from the queue contents and recomputed
// on load.

// reload empties q and lays it out as n nil entries from slot zero
// (head position is memory layout, not simulator state), growing the
// ring if it never held that many.
func (q *fifo) reload(n int) {
	clear(q.buf)
	if len(q.buf) < n {
		c := 2
		for c < n {
			c <<= 1
		}
		q.buf = make([]*flit.Flit, c)
	}
	q.head, q.n = 0, uint32(n)
}

// state walks the live contents of q, queue vc of its buffer, in FIFO
// order; max bounds the count.
func (q *fifo) state(c *snap.Codec, vc, max int) {
	n := c.Len(q.len(), max, "buffers: FIFO length")
	if c.Loading() {
		q.reload(n)
	}
	var prev *flit.Flit
	for i := 0; i < n; i++ {
		f := q.slot(i)
		c.Flit(f)
		c.Check(*f != nil && (*f).VC == vc && (prev == nil || (*f).Follows(prev)),
			"buffers: snapshot queue holds a nil flit, one of another VC, or flits out of wormhole order")
		prev = *f
	}
}

// state walks every queue's contents, none longer than max, and
// returns the number of flits they hold.
func (q *queues) state(c *snap.Codec, max int) int {
	c.Expect(len(q.qs), "buffers: queues")
	occ := 0
	for i := range q.qs {
		q.qs[i].state(c, i, max)
		occ += q.qs[i].len()
	}
	return occ
}

// State walks the generic buffer's mutable contents.
func (b *Generic) State(c *snap.Codec) {
	c.Section("generic")
	occ := b.queues.state(c, b.depth)
	if c.Loading() {
		b.occ = occ
		for i := range b.qs {
			b.restamp(i, 1, 0)
		}
	}
}

// State walks the DAMQ's mutable contents, including the per-queue
// read-port busy stamps of its bookkeeping delay model.
func (b *DAMQ) State(c *snap.Codec) {
	c.Section("damq")
	occ := b.queues.state(c, b.slots)
	c.Range(occ, 0, b.slots, "buffers: DAMQ pool occupancy")
	c.I64s(b.readReadyAt)
	if c.Loading() {
		b.occ = occ
		for i := range b.qs {
			b.restamp(i, b.lag(), b.readReadyAt[i])
		}
	}
}

// State walks the FC-CB's mutable contents.
func (b *FCCB) State(c *snap.Codec) {
	c.Section("fccb")
	occ := b.queues.state(c, b.slots)
	c.Range(occ, 0, b.slots, "buffers: FC-CB pool occupancy")
	if c.Loading() {
		b.occ = occ
		for i := range b.qs {
			b.restamp(i, 1, 0)
		}
	}
}
