// Package buffers implements the router input-buffer organizations
// the paper compares against: the conventional statically partitioned
// per-VC FIFO buffer ("GEN"), the Dynamically Allocated Multi-Queue
// (DAMQ, Tamir & Frazier 1988) and the Fully Connected Circular
// Buffer (FC-CB, Ni et al. 1998). The ViChaR unified buffer itself —
// the paper's contribution — lives in internal/core and satisfies the
// same Buffer interface.
package buffers

import (
	"errors"
	"math"

	"vichar/internal/flit"
	"vichar/internal/snap"
)

// Common buffer errors.
var (
	// ErrFull is returned by Write when no slot is available for the
	// flit (the caller violated credit-based flow control).
	ErrFull = errors.New("buffers: no free slot (credit violation)")
	// ErrEmpty is returned by Pop when the virtual channel holds no
	// readable flit.
	ErrEmpty = errors.New("buffers: virtual channel empty")
	// ErrBadVC is returned when a flit names a virtual channel the
	// buffer does not have.
	ErrBadVC = errors.New("buffers: virtual channel out of range")
)

// Buffer is the storage of one router input port. The router's
// per-VC state machines and the upstream credit bookkeeping enforce
// flow control; the buffer only stores flits and preserves per-VC
// FIFO order. The now parameters let architectures with multi-cycle
// bookkeeping (DAMQ) defer flit visibility.
type Buffer interface {
	// Slots returns the total flit capacity of the port.
	Slots() int
	// MaxVCs returns the number of virtual channel identifiers.
	MaxVCs() int
	// FreeSlotsFor returns how many more flits could currently be
	// written to the given VC: remaining private depth for statically
	// partitioned buffers, the shared pool headroom for unified ones.
	FreeSlotsFor(vc int) int
	// Write stores f (on channel f.VC), stamping f.ArrivedAt = now.
	Write(f *flit.Flit, now int64) error
	// Front returns the flit at the head of vc if it is readable at
	// cycle now, or nil.
	Front(vc int, now int64) *flit.Flit
	// ReadyAt returns the per-VC first-readable cycles: entry v is the
	// first cycle the head flit of v is readable, NeverReady while v is
	// empty, so for every now below NeverReady Front(v, now) != nil iff
	// ReadyAt()[v] <= now. Switch allocation compares it for the VCs
	// its active mask names, so the whole-port head poll never touches
	// flit storage. The slice is read-only and aliased for the buffer's
	// lifetime: call once, read every cycle.
	ReadyAt() []int64
	// Pop removes and returns the head of vc. It fails if Front would
	// have returned nil.
	Pop(vc int, now int64) (*flit.Flit, error)
	// Len returns the number of flits buffered on vc (including ones
	// not yet visible to readers).
	Len(vc int) int
	// Occupied returns the total number of flits currently stored.
	Occupied() int
	// State walks the buffer's mutable contents for a checkpoint;
	// wiring and shape are not stored — they re-derive from the
	// configuration at restore time, and loading needs a buffer
	// constructed with the same shape. Flit references resolve through
	// the codec; queue backing arrays are reused.
	State(c *snap.Codec)
}

// NeverReady is the first-readable stamp of an empty VC: no cycle
// count reaches it.
const NeverReady = math.MaxInt64

// queues is the per-VC FIFO storage of the fixed organizations
// together with its readiness state: readyAt[vc] is the first cycle
// queue vc's head flit is readable (NeverReady when empty), restamped
// whenever the head changes — a push to an empty queue or a pop.
// Front gates on it and ReadyAt exposes it, so the per-cycle readiness
// poll is one integer compare per queue with no flit-pointer chase.
// The stamps are derived from the queue contents; loading a checkpoint
// recomputes them.
type queues struct {
	qs      []fifo
	readyAt []int64
}

// newQueues returns vcs empty queues. A positive depth is a hard
// per-queue bound (the statically partitioned buffer): every ring is
// carved at that capacity from one array and never grows. With depth
// zero (the shared-pool organizations, whose queues lend each other
// space) rings start empty and double on demand.
func newQueues(vcs, depth int) queues {
	q := queues{qs: make([]fifo, vcs), readyAt: make([]int64, vcs)}
	for i := range q.readyAt {
		q.readyAt[i] = NeverReady
	}
	if depth > 0 {
		c := 1
		for c < depth {
			c <<= 1
		}
		rings := make([]*flit.Flit, vcs*c)
		for i := range q.qs {
			q.qs[i].buf = rings[i*c : (i+1)*c : (i+1)*c]
		}
	}
	return q
}

// restamp recomputes queue vc's first-readable cycle from its head:
// lag cycles after the head's arrival and not before floor.
func (q *queues) restamp(vc int, lag, floor int64) {
	q.readyAt[vc] = NeverReady
	if f := q.qs[vc].front(); f != nil {
		q.readyAt[vc] = max(f.ArrivedAt+lag, floor)
	}
}

// push appends f to queue f.VC, stamping it when it becomes the head.
func (q *queues) push(f *flit.Flit, lag, floor int64) {
	q.qs[f.VC].push(f)
	if q.qs[f.VC].len() == 1 {
		q.restamp(f.VC, lag, floor)
	}
}

// pop removes queue vc's head and stamps its successor.
func (q *queues) pop(vc int, lag, floor int64) *flit.Flit {
	f := q.qs[vc].pop()
	q.restamp(vc, lag, floor)
	return f
}

// Front returns the head of queue vc if it is readable at cycle now,
// or nil.
func (q *queues) Front(vc int, now int64) *flit.Flit {
	if vc < 0 || vc >= len(q.readyAt) || q.readyAt[vc] > now {
		return nil
	}
	return q.qs[vc].front()
}

// Len returns the number of flits on queue vc, readable or not.
func (q *queues) Len(vc int) int {
	if vc < 0 || vc >= len(q.qs) {
		return 0
	}
	return q.qs[vc].len()
}

// ReadyAt returns the per-queue first-readable stamps.
func (q *queues) ReadyAt() []int64 { return q.readyAt }

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
