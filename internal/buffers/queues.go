package buffers

import (
	"fmt"
	"math"

	"vichar/internal/flit"
	"vichar/internal/soa"
)

// Queues is the input buffer of every organization: one FIFO queue per
// virtual channel over one pool of slots, set by four numbers — the
// queue count, a per-queue depth bound, the pool size and the
// bookkeeping delay:
//
//	         queues   depth          pool           delay
//	GEN      VCs      VCDepth        VCs*VCDepth    0
//	DAMQ     VCs      BufferSlots    BufferSlots    DAMQDelay
//	FC-CB    VCs      BufferSlots    BufferSlots    0
//	ViChaR   MaxVCs   BufferSlots    BufferSlots    0
//
// A queue accepts a flit while it holds fewer than depth and the port
// fewer than pool. A written flit is readable max(delay, 1) cycles
// later — the one-cycle buffer write every organization has, or the
// DAMQ's longer bookkeeping — and a pop keeps the queue's read port
// busy for delay cycles.
//
// The storage is the slot pool of the paper's Unified Buffer Structure
// (§3.2): a flit-pointer slot array and one int16 successor link per
// slot (config.MaxBufferSlots keeps slot IDs in range). A queue is a
// chain through the links, held by head, tail and count registers —
// the VC Control Table's row; the free slots form one more chain — the
// Slot Availability Tracker. Which slot a flit sits in is never
// observable: only the queues' order, lengths and stamps are.
type Queues struct {
	slots []*flit.Flit
	// next[s] is the slot after s in its queue's chain or in the free
	// chain; dead for the last slot of a queue.
	next []int16
	// head, tail and count are the per-queue registers: the departing
	// and arriving slots (valid while count > 0) and the flits held.
	head, tail, count []int16
	// readyAt[vc] is the first cycle queue vc's head flit is readable
	// (NeverReady when empty), restamped whenever the head changes.
	// Front gates on it and ReadyAt exposes it, so the readiness poll is
	// one integer compare per queue with no flit-pointer chase.
	readyAt []int64
	// readPort[vc] is the first cycle queue vc may be read again after
	// its previous departure. Only a DAMQ keeps these stamps, and at
	// any delay, so its checkpoint layout does not depend on the delay;
	// the other organizations' read ports are never busy.
	readPort []int64
	depth    int
	occ      int
	delay    int64
	// free is the first slot of the free chain, -1 when the pool is
	// full.
	free int16
	org  org
}

// org is the organization a constructor built. It names the buffer's
// checkpoint section and nothing else: behaviour follows from the four
// numbers alone.
type org uint8

const (
	orgGeneric org = iota
	orgDAMQ
	orgFCCB
	orgViChaR
)

var sections = [...]string{orgGeneric: "generic", orgDAMQ: "damq", orgFCCB: "fccb", orgViChaR: "vichar"}

// orgNames name the organizations in constructor panics.
var orgNames = [...]string{orgGeneric: "generic", orgDAMQ: "DAMQ", orgFCCB: "FC-CB", orgViChaR: "ViChaR"}

// NewGeneric returns the conventional statically partitioned buffer
// (paper Figure 2, "parallel FIFO implementation"): vcs queues, each
// with a private depth of depth flits. A slot that belongs to VC i can
// never hold a flit of VC j — exactly the under-utilization Figure 3
// criticizes.
func NewGeneric(vcs, depth int) *Queues { return NewGenericIn(nil, vcs, depth) }

// NewGenericIn is NewGeneric drawing its arrays from the arena.
func NewGenericIn(a *soa.Arena, vcs, depth int) *Queues {
	return new(Queues).InitGeneric(a, vcs, depth)
}

// InitGeneric readies b, a zero Queues the caller owns (one of a router
// arena's pooled structs), as NewGenericIn's buffer and returns it.
func (b *Queues) InitGeneric(a *soa.Arena, vcs, depth int) *Queues {
	return b.init(a, vcs, depth, vcs*depth, 0, orgGeneric)
}

// NewDAMQ returns the Dynamically Allocated Multi-Queue of Tamir &
// Frazier (ISCA 1988): vcs queues sharing a pool of slots. Its
// linked-list control logic — pointer registers and a free list
// updated on every access — costs delay cycles per flit arrival and
// departure (three in the paper, §2, citing Frazier & Tamir, ICCD
// 1989). A congested VC can use slots an idle VC is not using, but the
// VC count is fixed and packets sharing a queue block its head.
func NewDAMQ(vcs, slots, delay int) *Queues { return NewDAMQIn(nil, vcs, slots, delay) }

// NewDAMQIn is NewDAMQ drawing its arrays from the arena.
func NewDAMQIn(a *soa.Arena, vcs, slots, delay int) *Queues {
	return new(Queues).InitDAMQ(a, vcs, slots, delay)
}

// InitDAMQ readies b, a zero Queues the caller owns, as NewDAMQIn's
// buffer and returns it.
func (b *Queues) InitDAMQ(a *soa.Arena, vcs, slots, delay int) *Queues {
	return b.init(a, vcs, slots, slots, delay, orgDAMQ)
}

// NewFCCB returns the Fully Connected Circular Buffer of Ni, Pirvu &
// Bhuyan (ICCD 1998): the DAMQ's shared pool, but its circular shifter
// completes buffer management in one cycle — the generous assumption
// the paper grants it in Figure 13(d). Its hardware costs (26% slower
// datapath, +18% area, +66% dynamic power) live in internal/synth.
func NewFCCB(vcs, slots int) *Queues { return NewFCCBIn(nil, vcs, slots) }

// NewFCCBIn is NewFCCB drawing its arrays from the arena.
func NewFCCBIn(a *soa.Arena, vcs, slots int) *Queues { return new(Queues).InitFCCB(a, vcs, slots) }

// InitFCCB readies b, a zero Queues the caller owns, as NewFCCBIn's
// buffer and returns it.
func (b *Queues) InitFCCB(a *soa.Arena, vcs, slots int) *Queues {
	return b.init(a, vcs, slots, slots, 0, orgFCCB)
}

// NewViChaR returns ViChaR's Unified Buffer Structure (paper §3.2),
// the generic port's slots "logically grouped in a single vk-flit
// entity": FC-CB's shared pool with a queue per VC ID the Token
// Dispenser can hand out, up to one per slot (paper Figure 5). How
// many are live is the dispenser's decision (internal/core).
func NewViChaR(vcs, slots int) *Queues { return NewViChaRIn(nil, vcs, slots) }

// NewViChaRIn is NewViChaR drawing its arrays from the arena.
func NewViChaRIn(a *soa.Arena, vcs, slots int) *Queues { return new(Queues).InitViChaR(a, vcs, slots) }

// InitViChaR readies b, a zero Queues the caller owns, as NewViChaRIn's
// buffer and returns it.
func (b *Queues) InitViChaR(a *soa.Arena, vcs, slots int) *Queues {
	return b.init(a, vcs, slots, slots, 0, orgViChaR)
}

// init makes b, a zero Queues, vcs empty queues over a pool of slots,
// taking every array from the arena (nil-arena safe; router.NewArena
// sizes it), after checking the shape the organization's constructor
// was given.
func (b *Queues) init(a *soa.Arena, vcs, depth, pool, delay int, o org) *Queues {
	switch {
	case o == orgGeneric && (vcs < 1 || depth < 1):
		panic(fmt.Sprintf("buffers: generic buffer needs positive shape, got %dx%d", vcs, depth))
	case o != orgGeneric && (vcs < 1 || pool < vcs):
		panic(fmt.Sprintf("buffers: %s needs at least one slot per VC, got %d VCs, %d slots", orgNames[o], vcs, pool))
	case delay < 0:
		panic(fmt.Sprintf("buffers: DAMQ delay cannot be negative, got %d", delay))
	case pool > math.MaxInt16:
		panic(fmt.Sprintf("buffers: a pool of %d slots overflows the int16 links", pool))
	}
	// Field by field: b is zero, and a composite literal would be built
	// aside and copied in.
	b.slots, b.next = a.TakeFlits(pool), a.TakeInt16s(pool)
	b.head, b.tail, b.count = a.TakeInt16s(vcs), a.TakeInt16s(vcs), a.TakeInt16s(vcs)
	b.readyAt, b.depth, b.delay, b.org = a.TakeInt64s(vcs), depth, int64(delay), o
	if o == orgDAMQ {
		b.readPort = a.TakeInt64s(vcs)
	}
	b.reset()
	return b
}

// reset empties every queue and chains the whole pool free in slot
// order.
func (b *Queues) reset() {
	clear(b.slots)
	clear(b.count)
	for s := range b.next {
		b.next[s] = int16(s + 1)
	}
	b.next[len(b.next)-1] = -1
	b.free, b.occ = 0, 0
	for vc := range b.readyAt {
		b.readyAt[vc] = NeverReady
	}
}

// link takes the first free slot and appends it to queue vc's chain.
// The caller has checked FreeSlotsFor.
func (b *Queues) link(vc int) int16 {
	s := b.free
	b.free = b.next[s]
	if b.count[vc] == 0 {
		b.head[vc] = s
	} else {
		b.next[b.tail[vc]] = s
	}
	b.tail[vc] = s
	b.count[vc]++
	b.occ++
	return s
}

// Slots returns the pool size.
func (b *Queues) Slots() int { return len(b.slots) }

// MaxVCs returns the fixed queue count.
func (b *Queues) MaxVCs() int { return len(b.head) }

// FreeSlotsFor returns the lesser of the queue's remaining depth and
// the pool's headroom.
func (b *Queues) FreeSlotsFor(vc int) int {
	if vc < 0 || vc >= len(b.count) {
		return 0
	}
	return min(b.depth-int(b.count[vc]), len(b.slots)-b.occ)
}

// Write appends f to queue f.VC.
func (b *Queues) Write(f *flit.Flit, now int64) error {
	if f.VC < 0 || f.VC >= len(b.count) {
		return ErrBadVC
	}
	if b.FreeSlotsFor(f.VC) <= 0 {
		return ErrFull
	}
	f.ArrivedAt = now
	b.slots[b.link(f.VC)] = f
	if b.count[f.VC] == 1 {
		b.restamp(f.VC)
	}
	return nil
}

// Front returns the head of queue vc if it is readable at cycle now,
// or nil.
func (b *Queues) Front(vc int, now int64) *flit.Flit {
	if vc < 0 || vc >= len(b.readyAt) || b.readyAt[vc] > now || b.count[vc] == 0 {
		return nil
	}
	return b.slots[b.head[vc]]
}

// Pop removes the head of queue vc, returns its slot to the free chain
// and occupies the queue's read port for the bookkeeping delay.
func (b *Queues) Pop(vc int, now int64) (*flit.Flit, error) {
	f := b.Front(vc, now)
	if f == nil {
		return nil, ErrEmpty
	}
	s := b.head[vc]
	b.slots[s] = nil
	b.head[vc] = b.next[s]
	b.next[s], b.free = b.free, s
	b.count[vc]--
	b.occ--
	if b.delay > 0 {
		b.readPort[vc] = now + b.delay
	}
	b.restamp(vc)
	return f, nil
}

// restamp recomputes queue vc's first-readable cycle from its head.
func (b *Queues) restamp(vc int) {
	b.readyAt[vc] = NeverReady
	if b.count[vc] > 0 {
		b.readyAt[vc] = b.slots[b.head[vc]].ArrivedAt + max(b.delay, 1)
		if b.readPort != nil {
			b.readyAt[vc] = max(b.readyAt[vc], b.readPort[vc])
		}
	}
}

// Len returns the number of flits on queue vc, readable or not.
func (b *Queues) Len(vc int) int {
	if vc < 0 || vc >= len(b.count) {
		return 0
	}
	return int(b.count[vc])
}

// Occupied returns the total stored flit count.
func (b *Queues) Occupied() int { return b.occ }

// ReadyAt returns the per-queue first-readable stamps.
func (b *Queues) ReadyAt() []int64 { return b.readyAt }

var _ Buffer = (*Queues)(nil)
