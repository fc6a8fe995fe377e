package buffers

import (
	"fmt"

	"vichar/internal/flit"
)

// Queues is the input buffer of every fixed-VC organization: one FIFO
// queue per virtual channel, set by three numbers — a per-queue depth
// bound, the pool size and the bookkeeping delay:
//
//	         depth          pool           delay
//	GEN      VCDepth        VCs*VCDepth    0
//	DAMQ     BufferSlots    BufferSlots    DAMQDelay
//	FC-CB    BufferSlots    BufferSlots    0
//
// A queue accepts a flit while it holds fewer than depth and the port
// fewer than pool. A written flit is readable max(delay, 1) cycles
// later — the one-cycle buffer write every organization has, or the
// DAMQ's longer bookkeeping — and a pop keeps the queue's read port
// busy for delay cycles.
type Queues struct {
	qs []fifo
	// readyAt[vc] is the first cycle queue vc's head flit is readable
	// (NeverReady when empty), restamped whenever the head changes — a
	// push to an empty queue or a pop. Front gates on it and ReadyAt
	// exposes it, so the per-cycle readiness poll is one integer
	// compare per queue with no flit-pointer chase. It is derived from
	// the queues and readPort; loading a checkpoint recomputes it.
	readyAt []int64
	// readPort[vc] is the first cycle queue vc may be read again after
	// its previous departure. Only a DAMQ keeps these stamps, and at
	// any delay, so its checkpoint layout does not depend on the delay;
	// the other organizations' read ports are never busy.
	readPort []int64
	depth    int
	pool     int
	occ      int
	delay    int64
	org      org
}

// org is the organization a constructor built. It names the buffer's
// checkpoint section and nothing else: behaviour follows from depth,
// pool and delay alone.
type org uint8

const (
	orgGeneric org = iota
	orgDAMQ
	orgFCCB
)

var sections = [...]string{orgGeneric: "generic", orgDAMQ: "damq", orgFCCB: "fccb"}

// NewGeneric returns the conventional statically partitioned buffer
// (paper Figure 2, "parallel FIFO implementation"): vcs queues, each
// with a private depth of depth flits. A slot that belongs to VC i can
// never hold a flit of VC j — exactly the under-utilization Figure 3
// criticizes.
func NewGeneric(vcs, depth int) *Queues {
	if vcs < 1 || depth < 1 {
		panic(fmt.Sprintf("buffers: generic buffer needs positive shape, got %dx%d", vcs, depth))
	}
	return newQueues(vcs, depth, vcs*depth, 0, orgGeneric)
}

// NewDAMQ returns the Dynamically Allocated Multi-Queue of Tamir &
// Frazier (ISCA 1988): vcs queues sharing a pool of slots. Its
// linked-list control logic — pointer registers and a free list
// updated on every access — costs delay cycles per flit arrival and
// departure (three in the paper, §2, citing Frazier & Tamir, ICCD
// 1989). A congested VC can use slots an idle VC is not using, but the
// VC count is fixed and packets sharing a queue block its head.
func NewDAMQ(vcs, slots, delay int) *Queues {
	if vcs < 1 || slots < vcs {
		panic(fmt.Sprintf("buffers: DAMQ needs at least one slot per VC, got %d VCs, %d slots", vcs, slots))
	}
	if delay < 0 {
		panic(fmt.Sprintf("buffers: DAMQ delay cannot be negative, got %d", delay))
	}
	b := newQueues(vcs, slots, slots, delay, orgDAMQ)
	b.readPort = make([]int64, vcs)
	return b
}

// NewFCCB returns the Fully Connected Circular Buffer of Ni, Pirvu &
// Bhuyan (ICCD 1998): the DAMQ's shared pool, but its circular shifter
// completes buffer management in one cycle — the generous assumption
// the paper grants it in Figure 13(d). Its hardware costs (26% slower
// datapath, +18% area, +66% dynamic power) live in internal/synth.
func NewFCCB(vcs, slots int) *Queues {
	if vcs < 1 || slots < vcs {
		panic(fmt.Sprintf("buffers: FC-CB needs at least one slot per VC, got %d VCs, %d slots", vcs, slots))
	}
	return newQueues(vcs, slots, slots, 0, orgFCCB)
}

// newQueues returns vcs empty queues. When every queue can be full at
// once (vcs*depth <= pool, the statically partitioned buffer) each
// ring is carved at its bound from one array and never grows;
// otherwise queues lend each other space, so rings start empty and
// double on demand.
func newQueues(vcs, depth, pool, delay int, o org) *Queues {
	b := &Queues{qs: make([]fifo, vcs), readyAt: make([]int64, vcs), depth: depth, pool: pool, delay: int64(delay), org: o}
	for i := range b.readyAt {
		b.readyAt[i] = NeverReady
	}
	if vcs*depth <= pool {
		c := 1
		for c < depth {
			c <<= 1
		}
		rings := make([]*flit.Flit, vcs*c)
		for i := range b.qs {
			b.qs[i].buf = rings[i*c : (i+1)*c : (i+1)*c]
		}
	}
	return b
}

// Slots returns the pool size.
func (b *Queues) Slots() int { return b.pool }

// MaxVCs returns the fixed queue count.
func (b *Queues) MaxVCs() int { return len(b.qs) }

// FreeSlotsFor returns the lesser of the queue's remaining depth and
// the pool's headroom.
func (b *Queues) FreeSlotsFor(vc int) int {
	if vc < 0 || vc >= len(b.qs) {
		return 0
	}
	return min(b.depth-b.qs[vc].len(), b.pool-b.occ)
}

// Write appends f to queue f.VC.
func (b *Queues) Write(f *flit.Flit, now int64) error {
	if f.VC < 0 || f.VC >= len(b.qs) {
		return ErrBadVC
	}
	if b.FreeSlotsFor(f.VC) <= 0 {
		return ErrFull
	}
	f.ArrivedAt = now
	b.qs[f.VC].push(f)
	if b.qs[f.VC].len() == 1 {
		b.restamp(f.VC)
	}
	b.occ++
	return nil
}

// Front returns the head of queue vc if it is readable at cycle now,
// or nil.
func (b *Queues) Front(vc int, now int64) *flit.Flit {
	if vc < 0 || vc >= len(b.readyAt) || b.readyAt[vc] > now {
		return nil
	}
	return b.qs[vc].front()
}

// Pop removes the head of queue vc and occupies its read port for the
// bookkeeping delay.
func (b *Queues) Pop(vc int, now int64) (*flit.Flit, error) {
	if b.Front(vc, now) == nil {
		return nil, ErrEmpty
	}
	b.occ--
	if b.delay > 0 {
		b.readPort[vc] = now + b.delay
	}
	f := b.qs[vc].pop()
	b.restamp(vc)
	return f, nil
}

// restamp recomputes queue vc's first-readable cycle from its head.
func (b *Queues) restamp(vc int) {
	b.readyAt[vc] = NeverReady
	if f := b.qs[vc].front(); f != nil {
		b.readyAt[vc] = f.ArrivedAt + max(b.delay, 1)
		if b.readPort != nil {
			b.readyAt[vc] = max(b.readyAt[vc], b.readPort[vc])
		}
	}
}

// Len returns the number of flits on queue vc, readable or not.
func (b *Queues) Len(vc int) int {
	if vc < 0 || vc >= len(b.qs) {
		return 0
	}
	return b.qs[vc].len()
}

// Occupied returns the total stored flit count.
func (b *Queues) Occupied() int { return b.occ }

// ReadyAt returns the per-queue first-readable stamps.
func (b *Queues) ReadyAt() []int64 { return b.readyAt }

var _ Buffer = (*Queues)(nil)

// fifo is a FIFO of flits over a power-of-two ring: head indexes the
// front, n counts the occupants. A full ring doubles (a queue sized
// to its bound by newQueues never does), and no ring ever shrinks.
type fifo struct {
	buf  []*flit.Flit
	head uint32
	n    uint32
}

func (q *fifo) push(f *flit.Flit) {
	if int(q.n) == len(q.buf) {
		//vichar:alloc a shared-pool queue doubles until it has held its deepest backlog (at most the pool), then never again
		grown := make([]*flit.Flit, max(2, 2*len(q.buf)))
		for i := range q.buf {
			grown[i] = q.at(i)
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)&uint32(len(q.buf)-1)] = f
	q.n++
}

func (q *fifo) pop() *flit.Flit {
	f := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & uint32(len(q.buf)-1)
	q.n--
	return f
}

// slot addresses the i-th entry from the front.
func (q *fifo) slot(i int) **flit.Flit { return &q.buf[(q.head+uint32(i))&uint32(len(q.buf)-1)] }

// at returns the i-th flit from the front.
func (q *fifo) at(i int) *flit.Flit { return *q.slot(i) }

func (q *fifo) front() *flit.Flit {
	if q.n == 0 {
		return nil
	}
	return q.buf[q.head]
}

func (q *fifo) len() int { return int(q.n) }
