package buffers

import (
	"vichar/internal/flit"
	"vichar/internal/snap"
)

// This file is the checkpoint walk of the fixed buffer organizations:
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

// State walks the buffer's mutable contents: each queue's flits, none
// more than the depth bound, then a DAMQ's read-port stamps. The
// section marker names the organization the constructor built.
func (b *Queues) State(c *snap.Codec) {
	c.Section(sections[b.org])
	c.Expect(len(b.qs), "buffers: queues")
	occ := 0
	for i := range b.qs {
		b.qs[i].state(c, i, b.depth)
		occ += b.qs[i].len()
	}
	c.Range(occ, 0, b.pool, "buffers: pool occupancy")
	if b.readPort != nil {
		c.I64s(b.readPort)
	}
	if c.Loading() {
		b.occ = occ
		for i := range b.qs {
			b.restamp(i)
		}
	}
}
