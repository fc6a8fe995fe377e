package buffers

import (
	"fmt"

	"vichar/internal/flit"
)

// DAMQ models the Dynamically Allocated Multi-Queue buffer of Tamir &
// Frazier (ISCA 1988): a unified pool of slots shared by a fixed
// number of queues (virtual channels). Its linked-list control logic
// — pointer registers and a free list that must be updated on every
// access — costs three cycles per flit arrival and departure (paper
// §2, citing Frazier & Tamir, ICCD 1989). We model that penalty as:
//
//   - an arriving flit becomes visible to the switch allocator only
//     delay cycles after it is written, and
//   - after a departure the queue's read port is busy for delay
//     cycles before the next flit can be read.
//
// Storage is fully shared, so a congested VC can use slots an idle VC
// is not using — but the VC count is fixed, and several packets share
// one queue in FIFO order, preserving head-of-line blocking.
type DAMQ struct {
	queues
	vcs   int
	slots int
	delay int64
	occ   int
	// readReadyAt[vc] is the first cycle the queue may be read again
	// after its previous departure.
	readReadyAt []int64
}

// NewDAMQ returns a DAMQ with the given fixed VC count, shared slot
// pool size and per-access bookkeeping delay in cycles.
func NewDAMQ(vcs, slots, delay int) *DAMQ {
	if vcs < 1 || slots < vcs {
		panic(fmt.Sprintf("buffers: DAMQ needs at least one slot per VC, got %d VCs, %d slots", vcs, slots))
	}
	if delay < 0 {
		panic(fmt.Sprintf("buffers: DAMQ delay cannot be negative, got %d", delay))
	}
	return &DAMQ{
		vcs:         vcs,
		slots:       slots,
		delay:       int64(delay),
		queues:      newQueues(vcs, 0),
		readReadyAt: make([]int64, vcs),
	}
}

// lag is the arrival-to-visibility latency: the bookkeeping delay, and
// at least the one-cycle buffer write every organization has.
func (b *DAMQ) lag() int64 { return max(b.delay, 1) }

// Slots returns the shared pool size.
func (b *DAMQ) Slots() int { return b.slots }

// MaxVCs returns the fixed queue count.
func (b *DAMQ) MaxVCs() int { return b.vcs }

// FreeSlotsFor returns the shared pool headroom (identical for every
// VC).
func (b *DAMQ) FreeSlotsFor(vc int) int {
	if vc < 0 || vc >= b.vcs {
		return 0
	}
	return b.slots - b.occ
}

// Write claims a shared slot for f on queue f.VC. The flit becomes
// readable once both its arrival bookkeeping and the queue's read-port
// busy window have elapsed.
func (b *DAMQ) Write(f *flit.Flit, now int64) error {
	if f.VC < 0 || f.VC >= b.vcs {
		return ErrBadVC
	}
	if b.occ >= b.slots {
		return ErrFull
	}
	f.ArrivedAt = now
	b.push(f, b.lag(), b.readReadyAt[f.VC])
	b.occ++
	return nil
}

// Pop removes the queue head and occupies the read port for the
// bookkeeping delay.
func (b *DAMQ) Pop(vc int, now int64) (*flit.Flit, error) {
	if b.Front(vc, now) == nil {
		return nil, ErrEmpty
	}
	b.occ--
	if b.delay > 0 {
		b.readReadyAt[vc] = now + b.delay
	}
	return b.pop(vc, b.lag(), b.readReadyAt[vc]), nil
}

// Occupied returns the total stored flit count.
func (b *DAMQ) Occupied() int { return b.occ }

var _ Buffer = (*DAMQ)(nil)
