// Package txn is the network-interface (NIU) transaction layer: a
// request/response protocol running on top of the flit network. Each
// requester node issues read, write and atomic requests against a
// bounded outstanding-request window; each responder node (a memory
// controller) serves ejected requests through a finite service queue
// and injects the matching response back toward the requester.
//
// Message kinds map onto virtual-channel classes — requests on class
// 0, responses on class 1 — so a response can never be blocked behind
// (or queued after) request traffic anywhere in the network. Together
// with the bounded requester windows and the responder's guaranteed
// response drain, this makes the protocol deadlock-free by
// construction; the router's audit layer cross-checks the class
// separation every cycle when Config.Audit is set. Running with
// Config.Txn.SharedVCs collapses both message kinds onto one class —
// the classic protocol-deadlock-prone NIU the regression wall uses as
// its negative control.
//
// Determinism: the engine mutates cross-node state (windows, pending
// tables, service queues) only from the simulator's serial sub-phase —
// Tick and OnEject both run there, iterating nodes in ascending ID
// order off per-node rng streams — and the only compute-phase entry
// point, Responder.Peek/Admit/Injected, touches state owned by the
// calling node alone. Results are therefore bit-identical for any
// worker count, and the engine checkpoints exactly (State).
package txn

import (
	"fmt"
	"sort"

	"vichar/internal/config"
	"vichar/internal/flit"
	"vichar/internal/rng"
	"vichar/internal/stats"
	"vichar/internal/topology"
)

// Transaction-layer message kinds, carried in flit.Packet.Kind. None
// marks plain fire-and-forget packets (the background traffic
// generator's), which the layer ignores except for responder-queue
// admission accounting.
const (
	None uint8 = iota
	ReadReq
	ReadRsp
	WriteReq // non-posted write: expects a WriteAck
	WriteAck
	PostedWrite // retires at the target, no response
	AtomicReq
	AtomicRsp
)

// Request and response VC classes (flit.Packet.Class). With
// Config.Txn.SharedVCs both kinds ride ClassReq.
const (
	ClassReq uint8 = 0
	ClassRsp uint8 = 1
)

// KindName returns the kind's mnemonic for diagnostics.
func KindName(k uint8) string {
	switch k {
	case None:
		return "none"
	case ReadReq:
		return "read-req"
	case ReadRsp:
		return "read-rsp"
	case WriteReq:
		return "write-req"
	case WriteAck:
		return "write-ack"
	case PostedWrite:
		return "posted-write"
	case AtomicReq:
		return "atomic-req"
	case AtomicRsp:
		return "atomic-rsp"
	}
	//vichar:alloc only reached from invariant-violation panic messages, never on a healthy tick path
	return fmt.Sprintf("kind-%d", k)
}

// IsRequest reports whether the kind is a requester-to-responder
// message.
func IsRequest(k uint8) bool {
	return k == ReadReq || k == WriteReq || k == PostedWrite || k == AtomicReq
}

// IsResponse reports whether the kind is a responder-to-requester
// message.
func IsResponse(k uint8) bool { return k == ReadRsp || k == WriteAck || k == AtomicRsp }

// ClassOf returns the VC class a message kind rides when class
// separation is on.
func ClassOf(k uint8) uint8 {
	if IsResponse(k) {
		return ClassRsp
	}
	return ClassReq
}

// responseOf returns the response kind a request kind elicits (None
// for posted writes).
func responseOf(k uint8) uint8 {
	switch k {
	case ReadReq:
		return ReadRsp
	case WriteReq:
		return WriteAck
	case AtomicReq:
		return AtomicRsp
	}
	return None
}

// Sender is the network surface the engine injects packets through: a
// transaction-layer packet from src to dst of size flits, carrying the
// kind, VC class and (for responses) the request packet ID it answers.
// The network assigns the packet ID and enqueues the packet at src's
// interface on the class's injection stream.
type Sender interface {
	SendTxnPacket(src, dst, size int, kind, class uint8, req uint64) *flit.Packet
}

// service is one request in a responder's service pipeline, ready to
// complete at readyAt.
type service struct {
	readyAt int64
	kind    uint8  // response kind to emit; None for posted writes
	req     uint64 // request packet ID
	dst     int    // requester node (the response destination)
}

// Responder is one node's memory-controller state: a finite service
// queue whose occupancy gates ejection-side admission. Peek and Admit
// satisfy the router package's Admission interface and run inside the
// owning router's compute phase; everything they touch is owned by
// this node.
type Responder struct {
	depth    int
	reserved int       // ejection grants whose tails have not arrived yet
	queue    []service // requests in service, readyAt non-decreasing
	egress   int       // responses created but not yet fully injected
}

// occupied returns the queue slots currently committed.
func (r *Responder) occupied() int { return r.reserved + len(r.queue) + r.egress }

// Peek reports whether a new packet of the class may be granted
// ejection this cycle: responses always may (the requester's window
// slot was reserved at issue), request-class packets need a free
// service-queue slot.
func (r *Responder) Peek(class int) bool {
	if class == int(ClassRsp) {
		return true
	}
	return r.occupied() < r.depth
}

// Admit reserves the queue slot an ejection grant of the class will
// occupy; its tail ejection converts the reservation into a service
// entry (requests) or releases it (everything else).
func (r *Responder) Admit(class int) {
	if class == int(ClassRsp) {
		return
	}
	if r.occupied() >= r.depth {
		//vichar:invariant VA calls Peek before Admit within the same cycle; an over-admission is a gating bug
		panic("txn: responder admission beyond queue depth")
	}
	r.reserved++
}

// Injected releases the egress slot of a response whose last flit just
// left the node's interface. Called from the owning node's compute
// phase (the NI tick).
func (r *Responder) Injected() {
	if r.egress == 0 {
		//vichar:invariant every response injection was preceded by exactly one completion that took the egress slot
		panic("txn: response injected without an egress slot")
	}
	r.egress--
}

// requester is one node's request-issue state.
type requester struct {
	stream  *rng.Stream      // into the engine's stream slab
	flight  int              // outstanding (issued, not retired) requests
	issued  int              // total requests issued, against Config.Txn.Requests
	pending map[uint64]int64 // request packet ID -> creation cycle
}

// Engine drives the transaction layer for one network.
type Engine struct {
	cfg  *config.Config
	mesh topology.Mesh
	send Sender

	requesters []int // node IDs that issue requests, ascending
	targets    []int // node IDs requests may address, ascending
	isTarget   []bool

	reqs  []requester  // indexed by node; zero-valued for non-requesters
	resps []*Responder // indexed by node; nil for non-responders

	window   int
	service  int
	reqCap   int // per-node request cap, 0 = unbounded
	readCut  float64
	writeCut float64 // cumulative mix cuts: [0,readCut) read, [readCut,writeCut) write, rest atomic

	issued  int64
	retired int64
	latency stats.Histogram // end-to-end transaction latencies, measurement window only
}

// New builds the engine for the configuration. The mesh must match
// the network's; send is the network's injection surface.
func New(cfg *config.Config, mesh topology.Mesh, send Sender) *Engine {
	t := &cfg.Txn
	e := &Engine{
		cfg:      cfg,
		mesh:     mesh,
		send:     send,
		isTarget: make([]bool, mesh.Nodes()),
		reqs:     make([]requester, mesh.Nodes()),
		resps:    make([]*Responder, mesh.Nodes()),
		window:   t.EffectiveWindow(),
		service:  t.EffectiveServiceCycles(),
		reqCap:   t.Requests,
	}
	read, write, _ := t.EffectiveMix()
	e.readCut = read
	e.writeCut = read + write

	// Node roles. Memory-edge mode puts the controllers on the left and
	// right mesh columns — the DRAM-edge floorplan — so every request
	// crosses the interior and response traffic shares horizontal
	// channels with requests bound for the far column (the overlap that
	// makes shared-VC protocol deadlock reachable). Otherwise every
	// node plays both roles with uniform targets.
	for id := 0; id < mesh.Nodes(); id++ {
		x := id % cfg.Width
		edge := x == 0 || x == cfg.Width-1
		if !t.MemEdge || edge {
			e.targets = append(e.targets, id)
			e.isTarget[id] = true
			e.resps[id] = &Responder{depth: t.EffectiveQueueDepth()}
		}
		if !t.MemEdge || !edge {
			e.requesters = append(e.requesters, id)
			e.reqs[id].pending = make(map[uint64]int64)
		}
	}
	// The request streams share one slab, seeded in place.
	streams := make([]rng.Stream, len(e.requesters))
	for j, id := range e.requesters {
		streams[j].Init(streamSeed(t.EffectiveSeed(cfg.Seed), id))
		e.reqs[id].stream = &streams[j]
	}
	return e
}

// streamSeed derives node id's request stream seed. The derivation
// differs from the traffic generator's so the two layers never share a
// sequence even under Txn.Seed == Config.Seed.
func streamSeed(seed int64, node int) int64 {
	return seed*2_147_483_629 + int64(node)*104_729 + 97
}

// Responder returns node id's memory-controller admission state, or
// nil when the node is not a responder; the network installs it as the
// ejection port's admission gate.
func (e *Engine) Responder(id int) *Responder { return e.resps[id] }

// Classes returns the VC class count the engine's packets use.
func (e *Engine) Classes() int { return e.cfg.VCClasses() }

// classFor returns the VC class for a message kind under the
// configured assignment.
func (e *Engine) classFor(kind uint8) uint8 {
	if e.cfg.Txn.SharedVCs {
		return ClassReq
	}
	return ClassOf(kind)
}

// requestSize returns the flit count of a request kind: writes carry a
// data payload, reads and atomics are header-sized.
func (e *Engine) requestSize(kind uint8) int {
	if kind == WriteReq || kind == PostedWrite {
		return e.cfg.PacketSize
	}
	return 1
}

// responseSize returns the flit count of a response kind: read
// responses carry the data payload, acks are header-sized.
func (e *Engine) responseSize(kind uint8) int {
	if kind == ReadRsp {
		return e.cfg.PacketSize
	}
	return 1
}

// Tick runs the serial per-cycle work: responder completions first
// (freeing queue slots and injecting responses), then request
// generation, both in ascending node order.
func (e *Engine) Tick(now int64) {
	for _, id := range e.targets {
		r := e.resps[id]
		for len(r.queue) > 0 && r.queue[0].readyAt <= now {
			s := r.queue[0]
			copy(r.queue, r.queue[1:])
			r.queue = r.queue[:len(r.queue)-1]
			if s.kind == None {
				continue // posted write: service done, slot freed
			}
			e.send.SendTxnPacket(id, s.dst, e.responseSize(s.kind), s.kind, e.classFor(s.kind), s.req)
			r.egress++
		}
	}
	for _, id := range e.requesters {
		q := &e.reqs[id]
		if q.flight >= e.window || (e.reqCap > 0 && q.issued >= e.reqCap) {
			continue
		}
		if q.stream.Float64() >= e.cfg.Txn.Rate {
			continue
		}
		kind := e.drawKind(q.stream)
		dst := e.drawTarget(q.stream, id)
		p := e.send.SendTxnPacket(id, dst, e.requestSize(kind), kind, e.classFor(kind), 0)
		q.pending[p.ID] = now
		q.flight++
		q.issued++
		e.issued++
	}
}

// drawKind draws a request kind from the configured mix.
func (e *Engine) drawKind(s *rng.Stream) uint8 {
	u := s.Float64()
	switch {
	case u < e.readCut:
		return ReadReq
	case u < e.writeCut:
		if s.Float64() < e.cfg.Txn.PostedFrac {
			return PostedWrite
		}
		return WriteReq
	default:
		return AtomicReq
	}
}

// drawTarget draws a uniform request target, excluding the requester
// itself when it is also a responder.
func (e *Engine) drawTarget(s *rng.Stream, self int) int {
	for {
		dst := e.targets[s.Intn(len(e.targets))]
		if dst != self {
			return dst
		}
	}
}

// OnEject handles a packet whose tail just ejected, from the serial
// commit sub-phase. Requests at a responder convert their admission
// reservation into a service entry (posted writes also retire their
// requester here); responses retire the transaction at the requester.
// Plain packets (Kind None) arriving at a responder release the
// admission reservation their ejection grant took. measuring gates the
// latency sample on the collector's measurement window.
func (e *Engine) OnEject(p *flit.Packet, now int64, measuring bool) {
	r := e.resps[p.Dst]
	// Any class-ReqVC packet ejecting at a responder consumed one
	// admission reservation at its ejection-VA grant; release it here.
	// Under shared VCs that includes responses — the coupling that
	// wedges the negative control.
	if r != nil && p.Class == ClassReq {
		if r.reserved == 0 {
			//vichar:invariant every gated ejection was admitted exactly once before its tail arrived
			panic(fmt.Sprintf("txn: node %d ejected %s with no admission reserved", p.Dst, KindName(p.Kind)))
		}
		r.reserved--
	}
	switch {
	case IsRequest(p.Kind):
		if r == nil {
			//vichar:invariant requests target responder nodes only
			panic(fmt.Sprintf("txn: %s ejected at non-responder node %d", KindName(p.Kind), p.Dst))
		}
		//vichar:alloc responder service queue is bounded by QueueDepth; append capacity settles there
		r.queue = append(r.queue, service{
			readyAt: now + int64(e.service),
			kind:    responseOf(p.Kind),
			req:     p.ID,
			dst:     p.Src,
		})
		if p.Kind == PostedWrite {
			e.retire(p.Src, p.ID, now, measuring)
		}
	case IsResponse(p.Kind):
		e.retire(p.Dst, p.Req, now, measuring)
	}
}

// retire completes node's transaction req, recording its end-to-end
// latency (request creation to retirement) when measuring.
func (e *Engine) retire(node int, req uint64, now int64, measuring bool) {
	q := &e.reqs[node]
	created, ok := q.pending[req]
	if !ok {
		//vichar:invariant one retirement per issued request; a duplicate means a duplicated or misrouted response
		panic(fmt.Sprintf("txn: node %d retiring unknown request %d", node, req))
	}
	delete(q.pending, req)
	q.flight--
	e.retired++
	if measuring {
		e.latency.Add(now - created)
	}
}

// OnInjected notifies the engine that a packet's last flit left node
// src's interface; responses release their responder egress slot.
// Called from the owning node's compute phase — it must only touch
// that node's state.
func (e *Engine) OnInjected(src int, p *flit.Packet) {
	if IsResponse(p.Kind) {
		e.resps[src].Injected()
	}
}

// Outstanding returns the transactions issued and not yet retired.
func (e *Engine) Outstanding() int64 { return e.issued - e.retired }

// Done reports whether a capped workload (Config.Txn.Requests > 0) has
// issued every request and retired every transaction.
func (e *Engine) Done() bool {
	if e.reqCap == 0 {
		return false
	}
	for _, id := range e.requesters {
		if e.reqs[id].issued < e.reqCap {
			return false
		}
	}
	return e.retired == e.issued
}

// Issued and Retired return the engine's lifetime transaction counts.
func (e *Engine) Issued() int64  { return e.issued }
func (e *Engine) Retired() int64 { return e.retired }

// Latency returns the histogram of end-to-end transaction latencies
// (measurement window only); the caller must not mutate it.
func (e *Engine) Latency() *stats.Histogram { return &e.latency }

// Quiescent reports whether the engine can generate no further work
// without network input: no responder holds queued or egress work and
// either the workload is capped out or generation is off.
func (e *Engine) Quiescent() bool {
	for _, id := range e.targets {
		r := e.resps[id]
		if len(r.queue) > 0 || r.egress > 0 || r.reserved > 0 {
			return false
		}
	}
	if e.reqCap == 0 {
		return false
	}
	for _, id := range e.requesters {
		if e.reqs[id].issued < e.reqCap {
			return false
		}
	}
	return true
}

// pendingIDs returns node id's pending request IDs in ascending order
// (checkpoint serialization must not depend on map iteration order).
func (e *Engine) pendingIDs(id int) []uint64 {
	q := &e.reqs[id]
	ids := make([]uint64, 0, len(q.pending))
	//vichar:ordered keys are sorted ascending before any consumer sees them
	for req := range q.pending {
		ids = append(ids, req)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}
