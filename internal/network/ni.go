package network

import (
	"vichar/internal/flit"
	"vichar/internal/metrics"
	"vichar/internal/router"
	"vichar/internal/txn"
)

// niStream is one injection stream of a network interface: the packet
// queue and in-flight flit cursor of a single VC class. Fire-and-
// forget runs have exactly one stream; the transaction layer gives
// each VC class its own so a queued response can never wait behind a
// request (or background packet) that cannot obtain a VC.
type niStream struct {
	queue []*flit.Packet
	qhead int

	// cur is the packet being injected (nil between packets), idx its
	// next flit and vc the channel the packet was granted.
	cur *flit.Packet
	idx int
	vc  int

	// lo and n are the class's regular VC chunk [lo, lo+n) at the local
	// input port (router.Span), which the NI's allocation pointer is
	// relative to.
	lo, n int
}

func (st *niStream) queued() int { return len(st.queue) - st.qhead }

// ni is one network interface: the per-class packet source queues
// feeding the router's local input port. It mirrors the local input
// port's buffer state through a credit view, allocates a VC per
// packet within the packet's class and injects one flit per cycle
// when credits allow.
type ni struct {
	node    int
	view    router.CreditView
	link    *flitLink
	streams []niStream
	rr      int // round-robin pointer over streams for the one-flit-per-cycle send
	// alloc is the VC allocation pointer, one for every stream: a grant
	// of VC vc leaves it at the offset after vc in the granting class's
	// chunk, and the next grant of any class scans its own chunk from
	// there.
	alloc int

	// txn, when the transaction layer is on, receives the fully-
	// injected notification that releases a responder's egress slot.
	// ni.tick runs in the node's compute shard and the hook touches
	// only this node's responder state, so the call is race-free.
	txn *txn.Engine

	// injected counts flits pushed onto the injection link and
	// creditStalls cycles a flit was held for lack of injection credit;
	// rec stages the injection events (nil unless tracing).
	injected     uint64
	creditStalls uint64
	rec          *metrics.Recorder
}

func (s *ni) enqueue(p *flit.Packet) {
	//vichar:alloc the source queue grows by doubling to the deepest backlog the run reaches and tick's compaction reuses the array, so appends stop allocating once the backlog peaks
	s.streams[p.Class].queue = append(s.streams[p.Class].queue, p)
}

func (s *ni) queued() int {
	n := 0
	for i := range s.streams {
		n += s.streams[i].queued()
	}
	return n
}

// idle reports whether a tick would be a no-op: no stream holds a
// packet mid-flight or queued. The compute worklist only lets a node
// sleep when its NI is idle; a stalled injection (cur != nil waiting
// for credit) keeps the node active until the credit arrives.
func (s *ni) idle() bool {
	for i := range s.streams {
		if s.streams[i].cur != nil || s.streams[i].queued() > 0 {
			return false
		}
	}
	return true
}

func (s *ni) tick(now int64) {
	// Start phase: every stream with a queued packet and no packet in
	// flight tries to allocate a VC within its own class.
	for c := range s.streams {
		st := &s.streams[c]
		if st.cur != nil || st.queued() == 0 {
			continue
		}
		if vc := s.view.FreeVC(c, false, s.alloc); vc >= 0 {
			s.view.ClaimVC(c, vc)
			s.alloc = (vc - st.lo + 1) % st.n
			p := st.queue[st.qhead]
			st.queue[st.qhead] = nil
			st.qhead++
			if st.qhead > len(st.queue)/2 && st.qhead > 16 {
				n := copy(st.queue, st.queue[st.qhead:])
				st.queue = st.queue[:n]
				st.qhead = 0
			}
			p.InjectedAt = now
			//vichar:alloc a record's flit storage is allocated by the first packet it carries (and again only by a larger one), then recycled with the record
			p.Materialize()
			st.cur = p
			st.idx = 0
			st.vc = vc
		}
	}
	// Send phase: the injection channel carries one flit per cycle;
	// streams with credit take turns round-robin. With one stream this
	// reduces exactly to the classic NI.
	n := len(s.streams)
	blocked := false
	for i := 0; i < n; i++ {
		c := s.rr + i
		if c >= n {
			c -= n
		}
		st := &s.streams[c]
		if st.cur == nil {
			continue
		}
		if !s.view.CanSendFlit(st.vc) {
			blocked = true
			continue
		}
		f := st.cur.Flit(st.idx)
		f.VC = st.vc
		s.view.OnSend(f)
		s.link.SendFlit(f, now)
		s.injected++
		if s.rec != nil {
			s.rec.StageEvent(metrics.Event{
				Cycle: now, Kind: metrics.EvInject, Packet: f.Pkt.ID, Flit: f.Seq,
				Node: s.node, Port: -1, VC: st.vc,
			})
		}
		st.idx++
		if st.idx == st.cur.Size {
			if s.txn != nil {
				s.txn.OnInjected(s.node, st.cur)
			}
			st.cur = nil
		}
		if n > 1 {
			s.rr = c + 1
			if s.rr == n {
				s.rr = 0
			}
		}
		return
	}
	if blocked {
		s.creditStalls++
	}
}
