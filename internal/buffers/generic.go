package buffers

import (
	"fmt"

	"vichar/internal/flit"
)

// Generic is the conventional statically partitioned input buffer:
// v independent FIFO queues, one per virtual channel, each with a
// private depth of k flits (paper Figure 2, "parallel FIFO
// implementation"). A slot that belongs to VC i can never hold a flit
// of VC j — exactly the under-utilization Figure 3 criticizes.
type Generic struct {
	queues
	vcs   int
	depth int
	occ   int
}

// NewGeneric returns a buffer of vcs FIFO queues, each depth flits
// deep.
func NewGeneric(vcs, depth int) *Generic {
	if vcs < 1 || depth < 1 {
		panic(fmt.Sprintf("buffers: generic buffer needs positive shape, got %dx%d", vcs, depth))
	}
	return &Generic{vcs: vcs, depth: depth, queues: newQueues(vcs, depth)}
}

// Slots returns vcs*depth.
func (b *Generic) Slots() int { return b.vcs * b.depth }

// MaxVCs returns the fixed VC count.
func (b *Generic) MaxVCs() int { return b.vcs }

// FreeSlotsFor returns the remaining private depth of the VC.
func (b *Generic) FreeSlotsFor(vc int) int {
	if vc < 0 || vc >= b.vcs {
		return 0
	}
	return b.depth - b.qs[vc].len()
}

// Write appends f to its VC's private queue; flits are readable from
// the cycle after they were written (buffer-write stage).
func (b *Generic) Write(f *flit.Flit, now int64) error {
	if f.VC < 0 || f.VC >= b.vcs {
		return ErrBadVC
	}
	if b.qs[f.VC].len() >= b.depth {
		return ErrFull
	}
	f.ArrivedAt = now
	b.push(f, 1, 0)
	b.occ++
	return nil
}

// Pop removes the head of the VC's queue.
func (b *Generic) Pop(vc int, now int64) (*flit.Flit, error) {
	if b.Front(vc, now) == nil {
		return nil, ErrEmpty
	}
	b.occ--
	return b.pop(vc, 1, 0), nil
}

// Occupied returns the total stored flit count.
func (b *Generic) Occupied() int { return b.occ }

var _ Buffer = (*Generic)(nil)
