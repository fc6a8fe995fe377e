package network

import (
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

// flitLink is a fixed-latency flit pipeline between an output port
// and a receiver.
type flitLink struct {
	delay int64
	q     []timedFlit
	head  int

	// Delivery target, encoded as plain fields instead of a per-link
	// closure so the deliver phase's hottest call is a direct method
	// invocation on stable memory. Exactly one shape is wired per link:
	// an ejection link stages into *eject; every other link hands the
	// flit to dst.ReceiveFlit(inPort, ...); an inter-router link also
	// bumps *count (the network's per-link flit counter) and stages the
	// arrival on rec, the receiving router's event recorder (nil unless
	// tracing).
	dst    *router.Router
	inPort int
	count  *uint64
	rec    *metrics.Recorder
	eject  *[]*flit.Flit

	// Active-router worklist wiring (DESIGN.md §14): owner is the
	// router whose deliver-phase plan ticks this link; wake points at
	// the WRITER router's wake buffer (Network.wakes[writer]). A send
	// that makes an empty link non-empty appends owner there; the
	// serial merge after the compute barrier re-activates the owner's
	// deliver entry. Only the writer's shard touches the buffer, so
	// the edge-triggered append is race-free at any worker count.
	owner int
	wake  *[]int

	// faults is the link's fault-model state (retransmission buffer,
	// scheduled drops, and the drop/corrupt/retransmit tallies); nil
	// without Config.Faults, which keeps the fault-free tick path
	// identical to the seed's.
	faults *faults.LinkState
}

// SendFlit enqueues f for delivery delay cycles from now.
func (l *flitLink) SendFlit(f *flit.Flit, now int64) {
	if l.head == len(l.q) && l.wake != nil {
		//vichar:alloc edge-triggered wake: at most one append per empty->non-empty transition, into a per-writer buffer reset each cycle
		*l.wake = append(*l.wake, l.owner)
	}
	//vichar:alloc in-flight queue is bounded by link occupancy; tick resets it to its backing array, so capacity reaches steady state after warm-up
	l.q = append(l.q, timedFlit{f: f, at: now + l.delay})
}

// pending reports whether the link still carries undelivered work: an
// in-flight payload or a flit parked in its retransmission buffer.
// The deliver shard keeps the owning router's deliver entry active
// while any plan link is pending, so fault-held links keep their
// router on the worklist until the retransmission drains.
func (l *flitLink) pending() bool {
	if l.head < len(l.q) {
		return true
	}
	return l.faults != nil && l.faults.Held() > 0
}

// deliverFlit hands a due flit to the link's wired target (see the
// field comment on flitLink).
func (l *flitLink) deliverFlit(f *flit.Flit, now int64) {
	if l.eject != nil {
		//vichar:alloc staging slice is reset to length 0 each commit, so its capacity reaches the per-cycle ejection peak and stays there
		*l.eject = append(*l.eject, f)
		return
	}
	if l.count != nil {
		*l.count++
		l.rec.StageEvent(metrics.Event{
			Cycle: now, Kind: metrics.EvLink, Packet: f.Pkt.ID, Flit: f.Seq,
			Node: l.owner, Port: l.inPort, VC: f.VC,
		})
	}
	l.dst.ReceiveFlit(l.inPort, f, now)
}

// tick delivers every flit due at or before now and reports whether
// the link still carries undelivered work (pending, folded in so the
// deliver sweep needs no second pass over the link).
func (l *flitLink) tick(now int64) bool {
	if l.faults != nil {
		l.tickFaulty(now)
		return l.pending()
	}
	for l.head < len(l.q) && l.q[l.head].at <= now {
		tf := l.q[l.head]
		l.q[l.head] = timedFlit{}
		l.head++
		l.deliverFlit(tf.f, now)
	}
	if l.head == len(l.q) {
		l.q = l.q[:0]
		l.head = 0
		return false
	}
	return true
}

// tickFaulty is the fault-model delivery path: each due flit's fate
// is rolled per attempt; a dropped or corrupted flit moves into the
// link's single-flit retransmission buffer and blocks the flits
// behind it until re-sent (preserving wormhole order), and a
// retransmission attempt may itself be faulted. The held flit stays
// inside the link's credit accounting as the RetxHeld audit term.
func (l *flitLink) tickFaulty(now int64) {
	s := l.faults
	if s.HeldDue(now) {
		if out := s.Attempt(now); out == faults.Deliver {
			l.deliverFlit(s.Release(), now)
		} else {
			s.Rearm(now)
		}
	}
	for l.head < len(l.q) && l.q[l.head].at <= now && !s.Blocked() {
		tf := l.q[l.head]
		l.q[l.head] = timedFlit{}
		l.head++
		if out := s.Attempt(now); out == faults.Deliver {
			l.deliverFlit(tf.f, now)
		} else {
			s.Hold(tf.f, now)
		}
	}
	if l.head == len(l.q) {
		l.q = l.q[:0]
		l.head = 0
	}
}

// timedCredit is a credit in flight on a reverse channel.
type timedCredit struct {
	c  flit.Credit
	at int64
}

// creditLink is the fixed-latency reverse channel of a link.
type creditLink struct {
	delay int64
	q     []timedCredit
	head  int

	// Delivery target as plain fields (same rationale as flitLink): an
	// inter-router reverse channel credits dst's output port outPort;
	// the NI reverse channel credits view directly.
	dst     *router.Router
	outPort int
	view    router.CreditView

	// Worklist wiring, identical contract to flitLink.owner/wake.
	owner int
	wake  *[]int
}

// SendCredit enqueues c for delivery delay cycles from now.
func (l *creditLink) SendCredit(c flit.Credit, now int64) {
	if l.head == len(l.q) && l.wake != nil {
		//vichar:alloc edge-triggered wake: at most one append per empty->non-empty transition, into a per-writer buffer reset each cycle
		*l.wake = append(*l.wake, l.owner)
	}
	//vichar:alloc in-flight queue is bounded by link occupancy; tick resets it to its backing array, so capacity reaches steady state after warm-up
	l.q = append(l.q, timedCredit{c: c, at: now + l.delay})
}

// tick delivers every credit due at or before now and reports whether
// the channel still carries undelivered credits.
func (l *creditLink) tick(now int64) bool {
	for l.head < len(l.q) && l.q[l.head].at <= now {
		tc := l.q[l.head]
		l.head++
		if l.dst != nil {
			l.dst.ReceiveCredit(l.outPort, tc.c)
		} else {
			l.view.OnCredit(tc.c)
		}
	}
	if l.head == len(l.q) {
		l.q = l.q[:0]
		l.head = 0
		return false
	}
	return true
}

// inflight returns the number of undelivered flits on the link.
func (l *flitLink) inflight() int { return len(l.q) - l.head }

// inflight returns the number of undelivered credits on the link.
func (l *creditLink) inflight() int { return len(l.q) - l.head }

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
