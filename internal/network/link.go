package network

import (
	"fmt"

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
// two.
type ring[T any] struct {
	buf        []T
	head, tail uint32
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
func (r *ring[T]) at(i int) *T { return &r.buf[(r.head+uint32(i))&uint32(len(r.buf)-1)] }

func (r *ring[T]) push(v T) {
	if r.len() == len(r.buf) {
		//vichar:invariant a link carries one payload per cycle for a fixed delay (plus, under faults, what downstream credit admits), which is what ringCap sized the ring for
		panic(fmt.Sprintf("network: link ring overflow at %d payloads", len(r.buf)))
	}
	r.buf[r.tail&uint32(len(r.buf)-1)] = v
	r.tail++
}

// flitLink is a fixed-latency flit pipeline between an output port
// and a receiver.
type flitLink struct {
	delay int64
	q     ring[timedFlit]

	// Delivery target, encoded as plain fields instead of a per-link
	// closure so the deliver phase's hottest call is a direct method
	// invocation on stable memory. Exactly one shape is wired per link:
	// an ejection link stages into *eject, the ejection list of its node's
	// (owner's) shard; every other link hands the flit to
	// dst.ReceiveFlit(inPort, ...); an inter-router link also
	// bumps *count (the network's per-link flit counter) and stages the
	// arrival on rec, the receiving router's event recorder (nil unless
	// tracing).
	dst    *router.Router
	inPort int
	count  *uint64
	rec    *metrics.Recorder
	eject  *[]ejection

	// Active-router worklist wiring (DESIGN.md §10): owner is the
	// router whose deliver-phase plan ticks this link, and tag names
	// the link's bit in the owner's deliverLinks mask (linkTag); wake
	// points at the wake list of the WRITER router's shard (shardLists).
	// A send that makes an empty link non-empty appends tag there; the
	// serial merge after the compute barrier sets the link's bit again.
	// Only the writer's shard touches the list, so the edge-triggered
	// append is race-free at any worker count.
	owner int
	tag   int
	wake  *[]int

	// faults is the link's fault-model state (retransmission buffer,
	// scheduled drops, and the drop/corrupt/retransmit tallies); nil
	// without Config.Faults, and then tick's fault hook is skipped.
	faults *faults.LinkState
}

// SendFlit enqueues f for delivery delay cycles from now.
func (l *flitLink) SendFlit(f *flit.Flit, now int64) {
	if l.q.len() == 0 && l.wake != nil {
		//vichar:alloc edge-triggered wake: at most one append per empty->non-empty transition, into the writer shard's list reset each cycle
		*l.wake = append(*l.wake, l.tag)
	}
	l.q.push(timedFlit{f: f, at: now + l.delay})
}

// pending reports whether the link still carries undelivered work: an
// in-flight payload or a flit parked in its retransmission buffer.
// The deliver shard keeps the link's bit in its owner's deliverLinks
// while it is pending, so a fault-held link stays on the worklist
// until the retransmission drains.
func (l *flitLink) pending() bool {
	if l.q.len() > 0 {
		return true
	}
	return l.faults != nil && l.faults.Held() > 0
}

// deliverFlit hands a due flit to the link's wired target (see the
// field comment on flitLink).
func (l *flitLink) deliverFlit(f *flit.Flit, now int64) {
	if l.eject != nil {
		//vichar:alloc the shard's staging list is reset to length 0 each commit, so its capacity reaches the per-cycle ejection peak and stays there
		*l.eject = append(*l.eject, ejection{f: f, node: l.owner})
		return
	}
	if l.count != nil {
		*l.count++
		if l.rec != nil {
			l.rec.StageEvent(metrics.Event{
				Cycle: now, Kind: metrics.EvLink, Packet: f.Pkt.ID, Flit: f.Seq,
				Node: l.owner, Port: l.inPort, VC: f.VC,
			})
		}
	}
	l.dst.ReceiveFlit(l.inPort, f, now)
}

// tick delivers every flit due at or before now and reports whether
// the link still carries undelivered work (pending, folded in so the
// deliver sweep needs no second pass over the link).
//
// The fault model hooks in where s is non-nil: each due flit's fate is
// rolled per attempt; a dropped or corrupted flit moves into the link's
// single-flit retransmission buffer and blocks the flits behind it
// until re-sent (preserving wormhole order), and a retransmission
// attempt may itself be faulted. The held flit stays inside the link's
// credit accounting as the RetxHeld audit term.
func (l *flitLink) tick(now int64) bool {
	s := l.faults
	if s != nil && s.HeldDue(now) {
		if s.Attempt(now) == faults.Deliver {
			l.deliverFlit(s.Release(), now)
		} else {
			s.Rearm(now)
		}
	}
	for l.q.len() > 0 && l.q.at(0).at <= now && (s == nil || !s.Blocked()) {
		f := l.q.at(0).f
		l.q.head++
		if s != nil && s.Attempt(now) != faults.Deliver {
			s.Hold(f, now)
			continue
		}
		l.deliverFlit(f, now)
	}
	return l.pending()
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

	// Worklist wiring, identical contract to flitLink.owner/tag/wake.
	owner int
	tag   int
	wake  *[]int
}

// SendCredit enqueues c for delivery delay cycles from now.
func (l *creditLink) SendCredit(c flit.Credit, now int64) {
	if l.q.len() == 0 && l.wake != nil {
		//vichar:alloc edge-triggered wake: at most one append per empty->non-empty transition, into the writer shard's list reset each cycle
		*l.wake = append(*l.wake, l.tag)
	}
	l.q.push(timedCredit{c: c, at: now + l.delay})
}

// tick delivers every credit due at or before now and reports whether
// the channel still carries undelivered credits.
func (l *creditLink) tick(now int64) bool {
	for l.q.len() > 0 && l.q.at(0).at <= now {
		c := l.q.at(0).c
		l.q.head++
		if l.dst != nil {
			l.dst.ReceiveCredit(l.outPort, c)
		} else {
			l.view.OnCredit(c)
		}
	}
	return l.q.len() > 0
}

// auditedLink ties together the four parties of one directed link's
// credit-conservation equation: the upstream credit view, the forward
// flit channel, the downstream input buffer and the reverse credit
// channel. Collected at wiring time, checked every step when
// Config.Audit is set.
type auditedLink struct {
	name string
	view router.CreditView
	fl   *flitLink
	cl   *creditLink
	buf  buffers.Buffer
}

// retxHeld returns the link's declared-fault conservation term: the
// flit count parked in its retransmission buffer.
func (al *auditedLink) retxHeld() int { return al.fl.faults.Held() }
