package buffers

import (
	"vichar/internal/flit"
	"vichar/internal/snap"
)

// State walks the buffer's mutable contents, every organization alike:
// each queue's flits in FIFO order (within its depth and, together, the
// pool), then a DAMQ's read-port stamps, under a section naming the
// organization. Slot IDs do not travel: loading rebuilds the free chain,
// links each flit into the next free slot and recomputes the stamps. It
// needs a buffer constructed with the same shape.
func (b *Queues) State(c *snap.Codec) {
	c.Section(sections[b.org])
	c.Expect(len(b.head), "buffers: queues")
	if c.Loading() {
		b.reset()
	}
	occ := 0
	for vc := range b.head {
		n := c.Len(int(b.count[vc]), min(b.depth, len(b.slots)-occ), "buffers: queue length within depth and pool")
		occ += n
		s := b.head[vc]
		var prev *flit.Flit
		for i := 0; i < n; i++ {
			if c.Loading() {
				s = b.link(vc)
			} else if i > 0 {
				s = b.next[s]
			}
			f := &b.slots[s]
			c.Flit(f)
			c.Check(*f != nil && (*f).VC == vc && (prev == nil || (*f).Follows(prev)),
				"buffers: snapshot queue holds a nil flit, one of another VC, or flits out of wormhole order")
			prev = *f
		}
	}
	if b.readPort != nil {
		c.I64s(b.readPort)
	}
	if c.Loading() && c.Err() == nil {
		for vc := range b.head {
			b.restamp(vc)
		}
	}
}
