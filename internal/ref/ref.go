// Package ref is a reference model of the simulated network, written
// to be obviously right rather than fast: the router of PAPER.md §3 and
// DESIGN.md §3/§6 (RC under XY or minimal-adaptive routing on a mesh
// or torus, escape-VC re-channelling, two-stage VA and SA with
// round-robin arbiters, credit-based wormhole flow control, the
// network interface, the links) and the fault plan of DESIGN.md §12
// over plain slices. Every router, port and VC is visited every cycle,
// and nothing is masked, memoized, pooled, sharded or skipped.
// It shares with the kernel only the inputs both must agree on
// (config, topology, the traffic draws, the flit types) and the
// stats.Collector that turns ejections into Results. A lockstep test
// in internal/network runs it beside the kernel (DESIGN.md §8).
package ref

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"vichar/internal/config"
	"vichar/internal/flit"
	"vichar/internal/stats"
	"vichar/internal/topology"
	"vichar/internal/traffic"
)

// Pipeline timing (DESIGN.md §3): a flit granted the switch at cycle t
// arrives downstream at t+2 (crossbar, then link); a credit sent at t
// and a flit the network interface injects at t land at t+1.
const (
	flitDelay   = 2
	creditDelay = 1
	injectDelay = 1
)

// InScope reports whether the reference models the configuration:
// either routing function on a mesh or torus, with escape VCs where
// they are needed, any fault plan, and one VC class (no transaction
// layer).
func InScope(cfg *config.Config) bool {
	return !cfg.Txn.Enabled
}

// Activity is one router's event record; its fields mean what the
// kernel's router.Activity fields of the same names mean.
type Activity struct {
	BufWrites    []uint64 // per input port: flits written
	BufReads     []uint64 // per input port: flits read (SA grants)
	PortStalls   []uint64 // per input port: cycles frozen by a fault-plan stall
	CreditStalls []uint64 // per output port: ready flits held for want of credit
	RC           uint64   // head flits routed
	VAOps        uint64   // VC allocator invocations
	VAGrants     uint64   // output VCs granted
	VADenials    uint64   // VC requests that competed and lost
	SAOps        uint64   // switch allocator invocations
	SADenials    uint64   // switch requests that competed and lost
	Reroutes     uint64   // waiting heads re-channelled onto the escape network
}

// rr is a round-robin arbiter over n inputs: it grants the first
// requester at or after its pointer, cyclically, and moves the pointer
// just past the winner. No request leaves it untouched.
type rr struct{ n, next int }

func (a *rr) pick(req func(i int) bool) int {
	for i := 0; i < a.n; i++ {
		if idx := (a.next + i) % a.n; req(idx) {
			a.next = (idx + 1) % a.n
			return idx
		}
	}
	return -1
}

func arbiters(count, inputs int) []rr {
	a := make([]rr, count)
	for i := range a {
		a[i] = rr{n: inputs}
	}
	return a
}

// timed is a payload on a wire and the cycle it is due.
type timed[T any] struct {
	v  T
	at int64
}

// land removes the payloads of q due by cycle now and hands them to
// fn, in the order they were sent. Every queue of the model pops by
// moving what is left to the front, so it keeps its capacity.
func land[T any](q *[]timed[T], now int64, fn func(T)) {
	i := 0
	for ; i < len(*q) && (*q)[i].at <= now; i++ {
		fn((*q)[i].v)
	}
	*q = (*q)[:copy(*q, (*q)[i:])]
}

// VC allocation states of an input VC.
const (
	idle = iota
	waiting
	active
)

// inVC is one input virtual channel: its queue of flits and its
// allocation state: the candidate output ports RC found for its packet
// and the cycle it began waiting, then the output port VA scored best
// and, once active, the output VC VA granted.
type inVC struct {
	flits    []*flit.Flit
	state    int
	cands    []int
	since    int64
	outPort  int
	outVC    int
	readPort int64 // first cycle the queue's read port is free again
	ask      int   // VA scratch: the output VC this VC asks for, -1 for none
	bid      bool  // SA scratch: this VC bids for the switch
}

// inPort is one input port's buffer, described by three numbers and
// nothing else: a per-VC cap, a pool shared by the port's VCs and a
// read delay. A written flit is readable max(delay, 1) cycles later and
// a read keeps its queue's read port busy for delay cycles.
//
//	        cap            pool           delay
//	GEN     VCDepth        VCs*VCDepth    0
//	ViC     BufferSlots    BufferSlots    0
//	DAMQ    BufferSlots    BufferSlots    DAMQDelay
//	FC-CB   BufferSlots    BufferSlots    0
type inPort struct {
	vcs              []inVC
	cap, pool, delay int
	used             int
	arrivals         []timed[*flit.Flit] // the wire into the port
	link             int                 // its inter-router link, -1 at the local port
	up               *view               // the credit view upstream of the port, nil if unconnected

	// The link's fault state under a fault plan: its delivery attempts
	// so far, its scheduled one-shot drops still to come, and the flit
	// its retransmission buffer holds with the cycle of its next try.
	attempts uint64
	drop1    []int64
	held     *flit.Flit
	retryAt  int64
}

// ready is the first cycle the head flit of c is readable.
func (p *inPort) ready(c *inVC) int64 {
	return max(c.flits[0].ArrivedAt+int64(max(p.delay, 1)), c.readPort)
}

// view is the upstream mirror of a downstream input port, kept at the
// output port that feeds it (or at the network interface). It answers
// whether a flit may be sent on a VC and which VC a new packet may
// take, and how many free slots adaptive routing scores its output
// by. A port's VC IDs are regular ones and, when the routing needs
// them, EscapeVCs escape ones at the top: the two kinds. A packet is
// granted a VC of its own kind only, and a fixed organization's scan
// offset is relative to the kind's span. Per organization:
//
//   - GEN: a private credit count per VC; a VC is granted only fully
//     drained and with its previous packet's tail gone. Free slots are
//     the sum of the credits.
//   - DAMQ and FC-CB: a pool beyond one permanently reserved slot per
//     queue; a flit takes a pool slot first and its queue's reservation
//     last, and a returning credit refills the reservation first. A
//     queue is granted once its previous packet's tail has gone. Free
//     slots are the pool's.
//   - ViC: the Token Dispenser. The kind's lowest free token is granted
//     while a pool slot is free, and the grant moves that slot into the
//     new VC's one-slot reservation (DESIGN.md §6). The reservation is
//     parked only while the VC has no flit downstream: a flit takes a
//     pool slot while there is one, which frees the parked
//     reservation, else it lands in the reservation; the credit of a
//     VC's last resident flit re-parks it. The tail's credit returns
//     the token. With escape VCs each kind also holds one slot back as
//     its grant reserve, used when the pool is empty; a slot a VC
//     frees refills its kind's reserve before the pool. Free slots are
//     the pool's, beyond the reserves.
//   - the ejection sink: always a VC, always credit.
type view struct {
	arch     config.BufferArch
	sink     bool
	depth    int
	held     []int  // per VC: flits sent and not yet credited
	open     []bool // per VC: granted to a packet (a token out, for ViC)
	reserved []bool // per VC: reservation slot parked and free
	free     int    // pool slots beyond the reservations
	escBase  int    // the first escape VC; every VC below it is regular
	kindRes  []bool // ViC with escape VCs, per kind (regular, escape): grant reserve free
	credits  []timed[flit.Credit]
}

func newView(cfg *config.Config) *view {
	nvc := cfg.MaxVCs()
	v := &view{arch: cfg.Arch, depth: cfg.VCDepth, held: make([]int, nvc), open: make([]bool, nvc), reserved: make([]bool, nvc), escBase: nvc}
	if cfg.NeedsEscape() {
		v.escBase -= cfg.EscapeVCs
	}
	switch cfg.Arch {
	case config.ViChaR:
		v.free = cfg.BufferSlots
		if cfg.NeedsEscape() {
			v.free -= 2
			v.kindRes = []bool{true, true}
		}
	case config.DAMQ, config.FCCB:
		v.free = cfg.BufferSlots - nvc
		for i := range v.reserved {
			v.reserved[i] = true
		}
	}
	return v
}

func (v *view) canSend(vc int) bool {
	switch {
	case v.sink:
		return true
	case v.arch == config.Generic:
		return v.held[vc] < v.depth
	}
	return v.free > 0 || v.reserved[vc]
}

func (v *view) send(f *flit.Flit) {
	if v.sink {
		return
	}
	vc := f.VC
	if !v.canSend(vc) {
		//vichar:invariant switch allocation polls canSend in the same cycle; a send without credit is a flow-control bug
		panic(fmt.Sprintf("ref: send without credit on vc %d", vc))
	}
	v.held[vc]++
	switch v.arch {
	case config.ViChaR:
		if v.free > 0 {
			v.free--
			if v.reserved[vc] {
				v.freeSlot(vc)
			}
		}
		v.reserved[vc] = false
	case config.DAMQ, config.FCCB:
		if v.free > 0 {
			v.free--
		} else {
			v.reserved[vc] = false
		}
	}
	if f.IsTail() && v.arch != config.ViChaR {
		v.open[vc] = false
	}
}

func (v *view) credit(c flit.Credit) {
	v.held[c.VC]--
	switch v.arch {
	case config.ViChaR:
		switch {
		case c.ReleaseVC:
			v.open[c.VC], v.reserved[c.VC] = false, false
			v.freeSlot(c.VC)
		case v.held[c.VC] == 0:
			v.reserved[c.VC] = true
		default:
			v.freeSlot(c.VC)
		}
	case config.DAMQ, config.FCCB:
		if v.reserved[c.VC] {
			v.free++
		} else {
			v.reserved[c.VC] = true
		}
	}
}

// kind is 1 for an escape VC, 0 for a regular one.
func (v *view) kind(vc int) int {
	if vc >= v.escBase {
		return 1
	}
	return 0
}

// freeSlot returns a slot vacated on vc: to its kind's grant reserve
// if that is spent, else to the pool.
func (v *view) freeSlot(vc int) {
	if k := v.kind(vc); v.kindRes != nil && !v.kindRes[k] {
		v.kindRes[k] = true
	} else {
		v.free++
	}
}

// freeVC returns the VC of the kind a new packet would be granted, or
// -1. The fixed organizations scan the kind's span round-robin from
// the span-relative offset from; the dispenser names its lowest free
// token while a slot is left for the token's reservation.
func (v *view) freeVC(escape bool, from int) int {
	if v.sink {
		return 0
	}
	lo, hi := 0, v.escBase
	if escape {
		lo, hi = v.escBase, len(v.open)
	}
	if v.arch == config.ViChaR {
		from = 0
		if v.free <= 0 && (v.kindRes == nil || !v.kindRes[v.kind(lo)]) {
			return -1
		}
	}
	for i := 0; i < hi-lo; i++ {
		vc := lo + (from+i)%(hi-lo)
		if !v.open[vc] && (v.arch != config.Generic || v.held[vc] == 0) {
			return vc
		}
	}
	return -1
}

func (v *view) claim(vc int) {
	if v.sink {
		return
	}
	v.open[vc] = true
	if v.arch == config.ViChaR {
		if v.free > 0 {
			v.free--
		} else {
			v.kindRes[v.kind(vc)] = false
		}
		v.reserved[vc] = true
	}
}

// freeSlots is the score adaptive routing gives the view's output.
func (v *view) freeSlots() int {
	if v.arch != config.Generic {
		return v.free
	}
	n := 0
	for _, h := range v.held {
		n += v.depth - h
	}
	return n
}

// outPort is one router output: the credit view of what it feeds and
// where its flits go — the downstream input port, or the node's
// ejection wire when down is nil.
type outPort struct {
	view *view
	down *inPort
}

type router struct {
	id  int
	in  []*inPort
	out []outPort

	vaIn, saIn   []rr   // per input port, over its VCs
	vaOut, saOut []rr   // per output port, over input ports
	vaOutVC      [][]rr // fixed organizations: per output (port, VC), over input (port, VC)

	eject []timed[*flit.Flit]
	act   Activity

	// Fault plan: each input port's stall windows (scheduled, then
	// rolled) and whether it is frozen this cycle, and the first dead
	// cycle of each cardinal output link.
	freeze     []config.FaultEvent
	stallUntil []int64
	stalled    []bool
	deadAt     [topology.Local]int64
}

// ni is a network interface: a source queue of packets, one packet
// injected at a time on the VC the interface's view granted it, one
// flit per cycle while the router's local port has credit.
type ni struct {
	queue []*flit.Packet
	cur   []*flit.Flit
	vc    int
	alloc int // where the next grant's round-robin scan starts, relative to the regular span
	view  *view
	port  *inPort
}

// Network is the reference network.
type Network struct {
	cfg     *config.Config
	mesh    topology.Mesh
	routers []*router
	nis     []*ni
	views   []*view // every credit view but the ejection sinks
	gen     *traffic.Generator
	col     *stats.Collector
	perNode []float64 // sample's per-node scratch
	now     int64
	nextID  uint64

	ejectedFlits uint64

	// The fault plan (DESIGN.md §12): the hash seeds of link attempts
	// and port stalls, the run's fault tallies and, when links die, the
	// up*/down* escape tree as each node's parent and its port toward
	// it (nil without a kill).
	linkSeed, stallSeed          uint64
	drops, corrupts, retransmits uint64
	parent, upPort               []int

	// Per inter-router link, in the kernel's ChannelLoads order: its
	// endpoints and the flits it has delivered, with snapshots at the
	// edges of the measurement window.
	links              []stats.ChannelLoad
	linkFlits          []uint64
	linkStart, linkEnd []uint64
	start, end         stats.Counters
	haveStart, haveEnd bool
	startEdge, endEdge bool
}

// ErrScope is returned by New for a configuration outside InScope.
var ErrScope = errors.New("ref: configuration outside the reference model's scope")

// New builds the reference network for a valid, in-scope
// configuration.
func New(cfg *config.Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !InScope(cfg) {
		return nil, ErrScope
	}
	mesh := topology.New(cfg.Width, cfg.Height)
	mesh.Torus = cfg.Torus
	ports, nvc := cfg.Ports(), cfg.MaxVCs()
	n := &Network{
		cfg:     cfg,
		mesh:    mesh,
		gen:     traffic.New(cfg, mesh),
		col:     stats.NewCollector(cfg.WarmupPackets, cfg.MeasurePackets, mesh.Nodes()),
		perNode: make([]float64, mesh.Nodes()),
	}
	depth, pool, delay := cfg.BufferSlots, cfg.BufferSlots, 0
	switch cfg.Arch {
	case config.Generic:
		depth, pool = cfg.VCDepth, cfg.VCs*cfg.VCDepth
	case config.DAMQ:
		delay = cfg.DAMQDelay
	}
	for id := 0; id < mesh.Nodes(); id++ {
		r := &router{
			id: id, out: make([]outPort, ports),
			vaIn: arbiters(ports, nvc), saIn: arbiters(ports, nvc),
			vaOut: arbiters(ports, ports), saOut: arbiters(ports, ports),
			act: Activity{
				BufWrites: make([]uint64, ports), BufReads: make([]uint64, ports),
				PortStalls: make([]uint64, ports), CreditStalls: make([]uint64, ports),
			},
			stallUntil: make([]int64, ports), stalled: make([]bool, ports),
		}
		for p := 0; p < ports; p++ {
			in := &inPort{vcs: make([]inVC, nvc), cap: depth, pool: pool, delay: delay, link: -1}
			for v := range in.vcs {
				in.vcs[v] = inVC{flits: make([]*flit.Flit, 0, depth), cands: make([]int, 0, 2)}
			}
			r.in = append(r.in, in)
			if cfg.Arch != config.ViChaR {
				r.vaOutVC = append(r.vaOutVC, arbiters(nvc, ports*nvc))
			}
		}
		for p := range r.deadAt {
			r.deadAt[p] = math.MaxInt64
		}
		n.routers = append(n.routers, r)
	}
	// Inter-router links, numbered as the kernel lists channel loads:
	// by source node, then by output port.
	for id, r := range n.routers {
		for p := 0; p < topology.Local; p++ {
			nb, ok := mesh.Neighbor(id, p)
			if !ok {
				continue
			}
			down := n.routers[nb].in[topology.Opposite(p)]
			down.link = len(n.links)
			n.links = append(n.links, stats.ChannelLoad{From: id, To: nb, Port: p})
			r.out[p] = outPort{view: newView(cfg), down: down}
			down.up = r.out[p].view
			n.views = append(n.views, down.up)
		}
		r.out[topology.Local] = outPort{view: &view{sink: true}}
		s := &ni{view: newView(cfg), port: r.in[topology.Local]}
		s.port.up = s.view
		n.nis = append(n.nis, s)
		n.views = append(n.views, s.view)
	}
	n.linkFlits = make([]uint64, len(n.links))
	if f := &cfg.Faults; f.Enabled() {
		n.plan(f)
	}
	return n, nil
}

// plan arms the fault plan: the hash seeds, each link's one-shot
// drops, each port's scheduled stalls, each output's kill cycle and,
// with a kill, the escape tree.
func (n *Network) plan(f *config.FaultsConfig) {
	n.linkSeed, n.stallSeed = mix(uint64(f.Seed)+0x6c696e6b), mix(uint64(f.Seed)+0x7374616c)
	for _, ev := range f.Events {
		r := n.routers[ev.Node]
		switch ev.Kind {
		case config.StallPort:
			r.freeze = append(r.freeze, ev)
		case config.KillLink:
			r.deadAt[ev.Port] = min(r.deadAt[ev.Port], ev.Cycle)
		case config.DropFlit:
			nb, _ := n.mesh.Neighbor(ev.Node, ev.Port)
			p := n.routers[nb].in[topology.Opposite(ev.Port)]
			p.drop1 = append(p.drop1, ev.Cycle)
			slices.Sort(p.drop1)
		}
	}
	if f.HasHardFaults() {
		n.tree()
	}
}

// tree builds the up*/down* escape tree of a plan that kills links
// (DESIGN.md §12): a breadth-first spanning tree from node 0, ports in
// ascending order, over the links that never die in either direction.
func (n *Network) tree() {
	n.parent, n.upPort = make([]int, len(n.routers)), make([]int, len(n.routers))
	for i := range n.parent {
		n.parent[i] = -1
	}
	queue := []int{0}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for p := 0; p < topology.Local; p++ {
			nb, ok := n.mesh.Neighbor(cur, p)
			if !ok || nb == 0 || n.parent[nb] >= 0 || n.routers[cur].deadAt[p] != math.MaxInt64 || n.routers[nb].deadAt[topology.Opposite(p)] != math.MaxInt64 {
				continue
			}
			n.parent[nb], n.upPort[nb] = cur, topology.Opposite(p)
			queue = append(queue, nb)
		}
	}
}

// treeHop is the escape tree's port at cur toward dst: down toward dst
// when the climb from dst to the root passes through cur, else up.
func (n *Network) treeHop(cur, dst int) int {
	for v := dst; n.parent[v] >= 0; v = n.parent[v] {
		if n.parent[v] == cur {
			return topology.Opposite(n.upPort[v])
		}
	}
	return n.upPort[cur]
}

// mix is SplitMix64's finalizer, and draw the fault plan's counter
// hash over it (DESIGN.md §12): draw k of a stream under a seed, as a
// uniform sample in [0, 1).
func mix(x uint64) uint64 {
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func draw(seed, stream, k uint64) float64 {
	return float64(mix(seed+mix(stream+mix(k)))>>11) / (1 << 53)
}

// Collector exposes the statistics collector.
func (n *Network) Collector() *stats.Collector { return n.col }

// EjectedFlits returns the flits consumed at their destinations so far.
func (n *Network) EjectedFlits() uint64 { return n.ejectedFlits }

// Activity returns router id's event record.
func (n *Network) Activity(id int) Activity { return n.routers[id].act }

// Step advances one cycle. The flits due at the processing elements
// eject, in node order; the traffic generator creates this cycle's
// packets; every payload due lands; then every network interface and
// router evaluates from that state. Nothing sent in a cycle is due in
// it, so the order routers are evaluated in cannot matter.
func (n *Network) Step() {
	n.now++
	now := n.now
	for id, r := range n.routers {
		land(&r.eject, now, func(f *flit.Flit) { n.ejectFlit(id, f, now) })
	}
	if n.cfg.InjectionRate > 0 {
		n.gen.Tick(now, n.create)
	}
	for _, r := range n.routers {
		for ip, p := range r.in {
			n.arrive(p, now, func(f *flit.Flit) {
				p.write(f, now)
				r.act.BufWrites[ip]++
				if p.link >= 0 {
					n.linkFlits[p.link]++
				}
			})
		}
	}
	for _, v := range n.views {
		land(&v.credits, now, v.credit)
	}
	// A window edge committed this cycle snapshots the counters as
	// they stand after delivery and before evaluation.
	if n.startEdge || n.endEdge {
		c := n.counters()
		if n.startEdge {
			n.start, n.linkStart = c, append([]uint64(nil), n.linkFlits...)
		}
		if n.endEdge {
			n.end, n.linkEnd = c, append([]uint64(nil), n.linkFlits...)
		}
		n.startEdge, n.endEdge = false, false
	}
	for id, r := range n.routers {
		n.nis[id].tick(now)
		r.tick(n, now)
	}
	if now%n.cfg.SampleEvery == 0 {
		n.sample(now)
	}
}

// arrive lands the flits due on the wire into port p, in the order they
// were sent. Under a fault plan each delivery over an inter-router link
// is an attempt, and a faulted one parks the flit in the link's
// retransmission buffer, which blocks the link until a retry gets the
// flit through, RetransmitDelay cycles after each faulted attempt
// (DESIGN.md §12).
func (n *Network) arrive(p *inPort, now int64, fn func(*flit.Flit)) {
	retx := int64(n.cfg.Faults.EffectiveRetransmitDelay())
	if p.held != nil && now >= p.retryAt {
		n.retransmits++
		if n.attempt(p, now) {
			f := p.held
			p.held = nil
			fn(f)
		} else {
			p.retryAt = now + retx
		}
	}
	i := 0
	for ; i < len(p.arrivals) && p.arrivals[i].at <= now && p.held == nil; i++ {
		if f := p.arrivals[i].v; n.attempt(p, now) {
			fn(f)
		} else {
			p.held, p.retryAt = f, now+retx
		}
	}
	p.arrivals = p.arrivals[:copy(p.arrivals, p.arrivals[i:])]
}

// attempt rolls one delivery attempt into p and reports whether the
// flit gets through. The link's next scheduled one-shot drop, once due,
// takes the attempt; otherwise draw k of the link's stream, for its
// k-th attempt, drops the flit below DropRate and corrupts it below
// DropRate + CorruptRate. Links from the network interfaces never
// fault.
func (n *Network) attempt(p *inPort, now int64) bool {
	if !n.cfg.Faults.Enabled() || p.link < 0 {
		return true
	}
	p.attempts++
	if len(p.drop1) > 0 && p.drop1[0] <= now {
		p.drop1 = p.drop1[1:]
		n.drops++
		return false
	}
	l, f := n.links[p.link], &n.cfg.Faults
	switch u := draw(n.linkSeed, uint64(l.From*topology.Local+l.Port), p.attempts); {
	case u < f.DropRate:
		n.drops++
	case u < f.DropRate+f.CorruptRate:
		n.corrupts++
	default:
		return true
	}
	return false
}

// create is the traffic generator's callback: a new packet joins its
// source's queue.
func (n *Network) create(src, dst, size int) {
	n.nextID++
	p := &flit.Packet{ID: n.nextID, Src: src, Dst: dst, Size: size, CreatedAt: n.now}
	n.nis[src].queue = append(n.nis[src].queue, p)
}

// ejectFlit consumes a flit at node's processing element. A tail
// completes its packet; the ejection that opens or closes the
// measurement window marks the cycle for a counter snapshot.
func (n *Network) ejectFlit(node int, f *flit.Flit, now int64) {
	p := f.Pkt
	if p.Dst != node || f.Seq != p.NextSeq {
		//vichar:invariant the flits of a packet follow its head, one VC per hop, so they all reach its destination in order
		panic(fmt.Sprintf("ref: %s ejected at node %d, expected seq %d", f, node, p.NextSeq))
	}
	p.NextSeq++
	n.ejectedFlits++
	if !f.IsTail() {
		return
	}
	p.EjectedAt = now
	was := n.col.Measuring()
	n.col.PacketEjected(p, now)
	if !was && n.col.Measuring() && !n.haveStart {
		n.startEdge, n.haveStart = true, true
	}
	if was && !n.col.Measuring() && !n.haveEnd {
		n.endEdge, n.haveEnd = true, true
	}
}

// counters totals every router's activity and the inter-router link
// traversals.
func (n *Network) counters() stats.Counters {
	var c stats.Counters
	for _, r := range n.routers {
		for p := range r.in {
			c.BufferWrites += r.act.BufWrites[p]
			c.BufferReads += r.act.BufReads[p]
		}
		c.VAOps += r.act.VAOps
		c.SAOps += r.act.SAOps
		c.VCGrants += r.act.VAGrants
		c.EscapeReroutes += r.act.Reroutes
		for _, s := range r.act.PortStalls {
			c.StallCycles += s
		}
	}
	c.FlitDrops, c.FlitCorrupts, c.Retransmits = n.drops, n.corrupts, n.retransmits
	c.XbarTraversals = c.BufferReads
	for _, f := range n.linkFlits {
		c.LinkTraversals += f
	}
	return c
}

// sample records the network's buffer occupancy and, per node, the
// mean number of VCs per input port that hold flits or a packet.
func (n *Network) sample(now int64) {
	occ, slots := 0, 0
	perNode := n.perNode
	for id, r := range n.routers {
		inUse := 0
		for _, p := range r.in {
			occ += p.used
			slots += n.cfg.BufferSlots
			for _, c := range p.vcs {
				if len(c.flits) > 0 || c.state != idle {
					inUse++
				}
			}
		}
		perNode[id] = float64(inUse) / float64(len(r.in))
	}
	n.col.Sample(now, float64(occ)/float64(slots), perNode)
}

// Finish closes the run where the last Step left it and returns its
// results: the window's counters (or the whole run's when the window
// never opened) and the per-link loads over the window. A run short of
// its quota is saturated.
func (n *Network) Finish() stats.Results {
	if !n.haveEnd {
		n.end, n.linkEnd, n.haveEnd = n.counters(), append([]uint64(nil), n.linkFlits...), true
	}
	res := n.col.Finalize(n.now, !n.col.Done())
	res.Counters = n.end
	if n.haveStart {
		res.Counters = n.end.Sub(n.start)
	}
	if res.MeasureCycles > 0 {
		res.ChannelLoads = append([]stats.ChannelLoad(nil), n.links...)
		for i := range res.ChannelLoads {
			delta := n.linkEnd[i]
			if n.linkStart != nil {
				delta -= n.linkStart[i]
			}
			res.ChannelLoads[i].Load = float64(delta) / float64(res.MeasureCycles)
			res.MaxChannelLoad = max(res.MaxChannelLoad, res.ChannelLoads[i].Load)
		}
	}
	res.Label = n.cfg.Label()
	res.InjectionRate = n.cfg.InjectionRate
	return res
}

// write stores a delivered flit; the upstream view guarantees room.
func (p *inPort) write(f *flit.Flit, now int64) {
	c := &p.vcs[f.VC]
	if len(c.flits) >= p.cap || p.used >= p.pool {
		//vichar:invariant the upstream credit view only sends into room it has mirrored
		panic(fmt.Sprintf("ref: %s overflows its buffer", f))
	}
	f.ArrivedAt = now
	c.flits = append(c.flits, f)
	p.used++
}

func (s *ni) tick(now int64) {
	if s.cur == nil && len(s.queue) > 0 {
		if vc := s.view.freeVC(false, s.alloc); vc >= 0 {
			s.view.claim(vc)
			s.alloc = (vc + 1) % s.view.escBase
			p := s.queue[0]
			s.queue = s.queue[:copy(s.queue, s.queue[1:])]
			p.InjectedAt = now
			s.cur, s.vc = flit.MakeFlits(p), vc
		}
	}
	if s.cur != nil && s.view.canSend(s.vc) {
		f := s.cur[0]
		f.VC = s.vc
		s.view.send(f)
		s.port.arrivals = append(s.port.arrivals, timed[*flit.Flit]{f, now + injectDelay})
		if s.cur = s.cur[1:]; len(s.cur) == 0 {
			s.cur = nil
		}
	}
}

// toward returns the port that moves coordinate c to d along a
// dimension of size size: on a mesh the direct way, on a torus the
// shorter way round, a tie going up (East or South).
func toward(c, d, size int, torus bool, down, up int) int {
	if torus {
		if fwd := (d - c + size) % size; fwd <= size-fwd {
			return up
		}
		return down
	}
	if d > c {
		return up
	}
	return down
}

// route appends to ports the output ports RC offers a head at node cur
// bound for dst: every minimal direction, X first, under
// minimal-adaptive routing, the X-first one alone under XY, and on the
// escape network (escape set) XY over the mesh links, never wrapping.
func (n *Network) route(ports []int, cur, dst int, escape bool) []int {
	if escape && n.parent != nil && cur != dst {
		return append(ports, n.treeHop(cur, dst))
	}
	cx, cy := n.mesh.XY(cur)
	dx, dy := n.mesh.XY(dst)
	torus := n.mesh.Torus && !escape
	if cx != dx {
		ports = append(ports, toward(cx, dx, n.mesh.Width, torus, topology.West, topology.East))
	}
	if cy != dy {
		ports = append(ports, toward(cy, dy, n.mesh.Height, torus, topology.North, topology.South))
	}
	switch {
	case len(ports) == 0:
		return append(ports, topology.Local)
	case escape || n.cfg.Routing == config.XY:
		return ports[:1]
	}
	return ports
}

// tick evaluates the pipeline in reverse stage order, so a flit
// advances at most one stage per cycle: SA, then VA, then RC. The
// speculative pipeline runs VA before SA, so a head granted a VC bids
// for the switch in the same cycle. The fault plan's port stalls are
// latched first, then escape re-channelling runs; no stage touches a
// frozen input port.
func (r *router) tick(n *Network, now int64) {
	if n.cfg.Faults.Enabled() {
		r.stall(n, now)
	}
	if n.cfg.NeedsEscape() {
		r.escape(n, now)
	}
	if n.cfg.Speculative {
		r.va(n.cfg.Arch, now)
		r.sa(now)
	} else {
		r.sa(now)
		r.va(n.cfg.Arch, now)
	}
	r.rc(n, now)
}

// stall freezes input ports for this cycle (DESIGN.md §12): a scheduled
// stall starting now extends its port's window to its end; a port not
// frozen by now starts a StallCycles window when draw now of its stream
// falls below StallRate. A frozen port's cycle counts in PortStalls.
func (r *router) stall(n *Network, now int64) {
	f := &n.cfg.Faults
	for _, ev := range r.freeze {
		if ev.Cycle == now {
			r.stallUntil[ev.Port] = max(r.stallUntil[ev.Port], now+int64(ev.Cycles))
		}
	}
	for p := range r.stalled {
		if f.StallRate > 0 && r.stallUntil[p] <= now && draw(n.stallSeed, uint64(r.id*len(r.in)+p), uint64(now)) < f.StallRate {
			r.stallUntil[p] = now + int64(f.EffectiveStallCycles())
		}
		if r.stalled[p] = now < r.stallUntil[p]; r.stalled[p] {
			r.act.PortStalls[p]++
		}
	}
}

// escape re-channels every head that has waited for a VC more than
// DeadlockThreshold cycles onto the escape network (the Token
// Dispenser's deadlock-recovery flow, paper Figure 10): from here to
// its destination the packet takes the escape route and escape VCs.
func (r *router) escape(n *Network, now int64) {
	for ip, p := range r.in {
		for v := range p.vcs {
			c := &p.vcs[v]
			if c.state != waiting || now-c.since <= int64(n.cfg.DeadlockThreshold) || r.stalled[ip] {
				continue
			}
			if pkt := c.flits[0].Pkt; !pkt.Escaped {
				pkt.Escaped = true
				c.cands = n.route(c.cands[:0], r.id, pkt.Dst, true)
				r.act.Reroutes++
			}
		}
	}
}

// rc routes the head flit of every idle VC that will be readable next
// cycle: buffer write and RC share the cycle a head arrives in.
func (r *router) rc(n *Network, now int64) {
	for ip, p := range r.in {
		for v := range p.vcs {
			c := &p.vcs[v]
			if c.state != idle || len(c.flits) == 0 || p.ready(c) > now+1 || r.stalled[ip] {
				continue
			}
			if !c.flits[0].IsHead() {
				//vichar:invariant a VC frees only after its tail leaves, so the next flit on it starts a packet
				panic(fmt.Sprintf("ref: router %d: %s at the head of an idle vc", r.id, c.flits[0]))
			}
			pkt := c.flits[0].Pkt
			c.state, c.since, c.cands = waiting, now, n.route(c.cands[:0], r.id, pkt.Dst, pkt.Escaped)
			r.act.RC++
		}
	}
}

// grant gives input VC c output VC ovc of output port op.
func (r *router) grant(c *inVC, op, ovc int) {
	r.out[op].view.claim(ovc)
	c.state, c.outVC = active, ovc
	r.act.VAGrants++
}

// best returns the candidate output of waiting VC c whose link is alive
// and that can grant its packet a VC of its kind and has the most free
// slots downstream, a tie going to the first listed, or -1.
func (r *router) best(c *inVC, now int64) int {
	esc := c.flits[0].Pkt.Escaped
	best, most := -1, -1
	for _, op := range c.cands {
		v := r.out[op].view
		if op < topology.Local && now >= r.deadAt[op] {
			continue
		}
		if s := v.freeSlots(); s > most && v.freeVC(esc, 0) >= 0 {
			best, most = op, s
		}
	}
	return best
}

// va is VC allocation. Each waiting VC picks its best output and asks
// that output's view for the VC a new packet would get (the fixed
// organizations scan from the VC's own index). ViChaR (paper Figure 7(b)): each input port
// nominates one asking VC, each output port picks one nominee and
// hands it the next free token. The fixed organizations (Figure 7(a)):
// each output VC picks one of the VCs asking for it.
func (r *router) va(arch config.BufferArch, now int64) {
	contenders, grants := 0, 0
	var nominee [topology.NumPorts]int
	for ip, p := range r.in {
		asks := 0
		for v := range p.vcs {
			c := &p.vcs[v]
			c.ask = -1
			if c.state == waiting && !r.stalled[ip] {
				if op := r.best(c, now); op >= 0 {
					c.outPort, c.ask = op, r.out[op].view.freeVC(c.flits[0].Pkt.Escaped, v)
				}
			}
			if c.ask >= 0 {
				asks++
			}
		}
		contenders += asks
		nominee[ip] = -1
		if arch != config.ViChaR {
			r.act.VAOps += uint64(asks)
		} else if asks > 0 {
			r.act.VAOps++
			nominee[ip] = r.vaIn[ip].pick(func(v int) bool { return p.vcs[v].ask >= 0 })
		}
	}
	if arch == config.ViChaR {
		for op := range r.out {
			ip := r.vaOut[op].pick(func(ip int) bool {
				v := nominee[ip]
				return v >= 0 && r.in[ip].vcs[v].outPort == op
			})
			if ip < 0 {
				continue
			}
			c := &r.in[ip].vcs[nominee[ip]]
			if ovc := r.out[op].view.freeVC(c.flits[0].Pkt.Escaped, 0); ovc >= 0 {
				r.grant(c, op, ovc)
				grants++
			}
		}
		r.act.VADenials += uint64(contenders - grants)
		return
	}
	// Fixed organizations: each output VC somebody asks for picks one
	// of its askers, and all of them are answered.
	nvc := len(r.in[0].vcs)
	vc := func(i int) *inVC { return &r.in[i/nvc].vcs[i%nvc] }
	for i := 0; i < len(r.in)*nvc; i++ {
		if c := vc(i); c.ask >= 0 {
			op, ovc := c.outPort, c.ask
			asks := func(j int) bool { d := vc(j); return d.ask == ovc && d.outPort == op }
			r.grant(vc(r.vaOutVC[op][ovc].pick(asks)), op, ovc)
			grants++
			for j := i; j < len(r.in)*nvc; j++ {
				if asks(j) {
					vc(j).ask = -1
				}
			}
		}
	}
	r.act.VADenials += uint64(contenders - grants)
}

// sa is switch allocation: each input port nominates one active VC
// whose head flit is readable and whose output VC has credit, each
// output port picks one nominee, and the winners cross to their links.
func (r *router) sa(now int64) {
	contenders, grants := 0, 0
	var nominee [topology.NumPorts]int
	for ip, p := range r.in {
		bids := 0
		for v := range p.vcs {
			c := &p.vcs[v]
			c.bid = false
			if c.state != active || len(c.flits) == 0 || p.ready(c) > now || r.stalled[ip] {
				continue
			}
			if c.bid = r.out[c.outPort].view.canSend(c.outVC); c.bid {
				bids++
			} else {
				r.act.CreditStalls[c.outPort]++
			}
		}
		contenders += bids
		nominee[ip] = -1
		if bids > 0 {
			r.act.SAOps++
			nominee[ip] = r.saIn[ip].pick(func(v int) bool { return p.vcs[v].bid })
		}
	}
	for op := range r.out {
		ip := r.saOut[op].pick(func(ip int) bool {
			v := nominee[ip]
			return v >= 0 && r.in[ip].vcs[v].outPort == op
		})
		if ip >= 0 {
			r.traverse(ip, nominee[ip], now)
			grants++
		}
	}
	r.act.SADenials += uint64(contenders - grants)
}

// traverse moves the winning flit of input (ip, v) through the
// crossbar onto its output: the buffer slot's credit goes upstream
// (releasing the VC with the tail), and the flit leaves on its output
// VC for the next router or the processing element.
func (r *router) traverse(ip, v int, now int64) {
	p := r.in[ip]
	c := &p.vcs[v]
	f := c.flits[0]
	c.flits = c.flits[:copy(c.flits, c.flits[1:])]
	p.used--
	c.readPort = now + int64(p.delay)
	r.act.BufReads[ip]++
	p.up.credits = append(p.up.credits, timed[flit.Credit]{flit.Credit{VC: v, ReleaseVC: f.IsTail()}, now + creditDelay})
	o := r.out[c.outPort]
	f.VC = c.outVC
	o.view.send(f)
	if o.down != nil {
		o.down.arrivals = append(o.down.arrivals, timed[*flit.Flit]{f, now + flitDelay})
	} else {
		r.eject = append(r.eject, timed[*flit.Flit]{f, now + flitDelay})
	}
	if f.IsTail() {
		c.state = idle
	}
}
