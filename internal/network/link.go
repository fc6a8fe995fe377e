package network

import (
	"fmt"
	"sync/atomic"

	"vichar/internal/buffers"
	"vichar/internal/faults"
	"vichar/internal/flit"
	"vichar/internal/metrics"
	"vichar/internal/router"
)

// timedFlit is a flit in flight on a link.
type timedFlit struct {
	f  *flit.Flit
	at int64
}

// ring is the in-flight queue of one link: a fixed-capacity circular
// buffer, sized once at wiring time (ringCap) and never grown. head
// and tail are free-running counters; their difference is the
// occupancy and their low bits index buf, whose length is a power of
// two. The writer moves tail (push), the reader moves head. A shared
// ring's writer and reader sit in different shards, which run a
// cycle's batch concurrently (DESIGN.md §10.1): the writer publishes
// tail atomically and never reads head. tail stays a plain uint32 so
// that private rings keep plain stores: an atomic store on every push
// would cost them what the shared rings pay, about 2 % at saturation.
type ring[T any] struct {
	buf        []T
	head, tail uint32
	shared     bool
}

// ringCap returns the power-of-two capacity for a link that can hold
// at most bound payloads.
func ringCap(bound int) int {
	c := 1
	for c < bound {
		c <<= 1
	}
	return c
}

func (r *ring[T]) len() int { return int(r.tail - r.head) }

// at returns the i-th oldest queued payload.
func (r *ring[T]) at(i int) *T { return r.slot(r.head + uint32(i)) }

// slot returns the payload at free-running position i.
func (r *ring[T]) slot(i uint32) *T { return &r.buf[i&uint32(len(r.buf)-1)] }

// push appends v: the writer's side.
func (r *ring[T]) push(v T) {
	*r.slot(r.tail) = v
	if r.shared {
		atomic.StoreUint32(&r.tail, r.tail+1)
	} else {
		r.tail++
	}
}

// loadTail returns the tail a drain may consume up to, checking
// capacity: a link is drained every cycle it holds payloads, so an
// overflowing push shows here before anything is consumed.
func (r *ring[T]) loadTail() uint32 {
	var tail uint32
	if r.shared {
		tail = atomic.LoadUint32(&r.tail)
	} else {
		tail = r.tail
	}
	if int(tail-r.head) > len(r.buf) {
		//vichar:invariant a link carries one payload per cycle for a fixed delay (plus, under faults, what downstream credit admits), which is what ringCap sized the ring for
		panic(fmt.Sprintf("network: link ring overflow at %d payloads", len(r.buf)))
	}
	return tail
}

// setHead ends a drain at head, storing only when it moved: a drain that
// consumed nothing leaves the line its writer shares clean.
func (r *ring[T]) setHead(head uint32) {
	if head != r.head {
		r.head = head
	}
}

// wakeOnSend reports whether a send must enqueue the link's wake tag:
// when it makes the link non-empty, and on a shared ring always, as
// the reader may be clearing the link's bit concurrently.
func (r *ring[T]) wakeOnSend() bool { return r.shared || r.len() == 0 }

// flitLink is a fixed-latency flit pipeline between an output port
// and a receiver.
type flitLink struct {
	delay int64
	q     ring[timedFlit]

	// Delivery target, encoded as plain fields instead of a per-link
	// closure so the deliver step's hottest call is a direct method
	// invocation on stable memory. Exactly one shape is wired per link:
	// an ejection link stages into *eject, the ejection list of its
	// node's (owner's) shard (stageEjections); every other link hands
	// the flit to dst.ReceiveFlit(inPort, ...); an inter-router link
	// also bumps *count (the network's per-link flit counter) and
	// stages the arrival on rec, the receiving router's event recorder
	// (nil unless tracing).
	dst    *router.Router
	inPort int
	count  *uint64
	rec    *metrics.Recorder
	eject  *[]ejection

	// Active-router worklist wiring (DESIGN.md §10): tag names the
	// link's bit in its owner's deliverLinks mask (linkTag) — the owner,
	// tag>>5, is the router whose deliver plan ticks this link — and
	// wake points at the wake list of the WRITER router's shard
	// (shardLists). A send that makes an empty link non-empty appends
	// tag there (ring.wakeOnSend); the serial merge after the batch
	// barrier sets the link's bit again. Only the writer's shard touches
	// the list, so the append is race-free at any worker count.
	tag  int
	wake *[]int

	// faults is the link's fault-model state (retransmission buffer,
	// scheduled drops, and the drop/corrupt/retransmit tallies); nil
	// without Config.Faults, and then tick's fault hook is skipped.
	faults *faults.LinkState
}

// owner is the router whose deliver plan ticks the link.
func (l *flitLink) owner() int { return l.tag >> 5 }

// SendFlit enqueues f for delivery delay cycles from now.
func (l *flitLink) SendFlit(f *flit.Flit, now int64) {
	if l.wake != nil && l.q.wakeOnSend() {
		//vichar:alloc wake: at most one append per link and cycle, into the writer shard's list reset each cycle
		*l.wake = append(*l.wake, l.tag)
	}
	l.q.push(timedFlit{f: f, at: now + l.delay})
}

// pending reports whether the link still carries undelivered work: an
// in-flight payload or a flit parked in its retransmission buffer.
// The deliver step keeps the link's bit in its owner's deliverLinks
// while it is pending, so a fault-held link stays on the worklist
// until the retransmission drains. Read between batches only.
func (l *flitLink) pending() bool {
	if l.q.len() > 0 {
		return true
	}
	return l.faults != nil && l.faults.Held() > 0
}

// deliverFlit hands a due flit to the link's wired target (see the
// field comment on flitLink).
func (l *flitLink) deliverFlit(f *flit.Flit, now int64) {
	if l.count != nil {
		*l.count++
		if l.rec != nil {
			l.rec.StageEvent(metrics.Event{
				Cycle: now, Kind: metrics.EvLink, Packet: f.Pkt.ID, Flit: f.Seq,
				Node: l.owner(), Port: l.inPort, VC: f.VC,
			})
		}
	}
	l.dst.ReceiveFlit(l.inPort, f, now)
}

// tick delivers every flit due at or before now and reports whether
// it delivered any and whether the link still carries undelivered work
// (pending, folded in so the deliver sweep needs no second pass).
//
// The fault model hooks in where s is non-nil: each due flit's fate is
// rolled per attempt; a dropped or corrupted flit moves into the link's
// single-flit retransmission buffer and blocks the flits behind it
// until re-sent (preserving wormhole order), and a retransmission
// attempt may itself be faulted. The held flit stays inside the link's
// credit accounting as the RetxHeld audit term.
func (l *flitLink) tick(now int64) (delivered, pending bool) {
	if l.eject != nil {
		return false, l.stageEjections(now)
	}
	s := l.faults
	if s != nil && s.HeldDue(now) {
		if s.Attempt(now) == faults.Deliver {
			l.deliverFlit(s.Release(), now)
			delivered = true
		} else {
			s.Rearm(now)
		}
	}
	head, tail := l.q.head, l.q.loadTail()
	for head != tail && l.q.slot(head).at <= now && (s == nil || !s.Blocked()) {
		f := l.q.slot(head).f
		head++
		if s != nil && s.Attempt(now) != faults.Deliver {
			s.Hold(f, now)
			continue
		}
		l.deliverFlit(f, now)
		delivered = true
	}
	l.q.setHead(head)
	return delivered, head != tail || (s != nil && s.Held() > 0)
}

// stageEjections is an ejection link's deliver step: it drops the flits
// committed at the top of this cycle and stages those due next cycle
// for the next top of cycle to commit. With a delay of two, nothing
// sent from here on is due before then. It reports whether the link
// still holds flits.
func (l *flitLink) stageEjections(now int64) bool {
	head, tail := l.q.head, l.q.loadTail()
	for head != tail && l.q.slot(head).at <= now {
		head++
	}
	l.q.setHead(head)
	for i := head; i != tail && l.q.slot(i).at <= now+1; i++ {
		//vichar:alloc the shard's staging list is reset to length 0 each commit, so its capacity reaches the per-cycle ejection peak and stays there
		*l.eject = append(*l.eject, ejection{f: l.q.slot(i).f, node: l.owner()})
	}
	return head != tail
}

// timedCredit is a credit in flight on a reverse channel.
type timedCredit struct {
	c  flit.Credit
	at int64
}

// creditLink is the fixed-latency reverse channel of a link.
type creditLink struct {
	delay int64
	q     ring[timedCredit]

	// Delivery target as plain fields (same rationale as flitLink): an
	// inter-router reverse channel credits dst's output port outPort;
	// the NI reverse channel credits view directly.
	dst     *router.Router
	outPort int
	view    router.CreditView

	// Worklist wiring, identical contract to flitLink.tag/wake; the
	// owner is tag>>5.
	tag  int
	wake *[]int
}

// SendCredit enqueues c for delivery delay cycles from now.
func (l *creditLink) SendCredit(c flit.Credit, now int64) {
	if l.wake != nil && l.q.wakeOnSend() {
		//vichar:alloc wake: at most one append per link and cycle, into the writer shard's list reset each cycle
		*l.wake = append(*l.wake, l.tag)
	}
	l.q.push(timedCredit{c: c, at: now + l.delay})
}

// tick delivers every credit due at or before now and reports whether
// the channel still carries undelivered credits.
func (l *creditLink) tick(now int64) bool {
	head, tail := l.q.head, l.q.loadTail()
	for ; head != tail && l.q.slot(head).at <= now; head++ {
		c := l.q.slot(head).c
		if l.dst != nil {
			l.dst.ReceiveCredit(l.outPort, c)
		} else {
			l.view.OnCredit(c)
		}
	}
	l.q.setHead(head)
	return head != tail
}

// auditedLink ties together the four parties of one directed link's
// credit-conservation equation: the upstream credit view, the forward
// flit channel, the downstream input buffer and the reverse credit
// channel. Collected at wiring time, checked every step when
// Config.Audit is set.
type auditedLink struct {
	view router.CreditView
	fl   *flitLink
	cl   *creditLink
	buf  *buffers.Queues
}

// name identifies the link in violation reports — "3->4" from router 3
// to router 4, "ni5->5" for node 5's injection link — derived from its
// endpoints when a report needs it, never at construction.
func (al *auditedLink) name() string {
	to := al.fl.owner()
	if up := al.cl.dst; up != nil {
		//vichar:alloc a violation report's link name, built once for the report that ends the run
		return fmt.Sprintf("%d->%d", up.ID(), to)
	}
	//vichar:alloc a violation report's link name, built once for the report that ends the run
	return fmt.Sprintf("ni%d->%d", to, to)
}

// retxHeld returns the link's declared-fault conservation term: the
// flit count parked in its retransmission buffer.
func (al *auditedLink) retxHeld() int { return al.fl.faults.Held() }
