// Package network assembles the complete simulated system: the mesh
// of routers, the inter-router links, the per-node network interfaces
// (traffic sources and sinks) and the cycle-driven simulation loop
// with the paper's measurement protocol.
//
// The simulator is cycle-accurate at the granularity of architectural
// components. Each cycle runs as an explicit two-phase kernel
// (DESIGN.md §10): a deliver/inject phase that moves due link
// payloads into their receivers and enqueues new traffic, then a
// compute phase that evaluates every router's pipeline stages in
// reverse order so that flits progress exactly one stage per cycle.
// Every flit and credit link has exactly one writer router (compute
// phase) and one receiver router (deliver phase), so both phases
// shard by router ID (Config.Workers shards on shard-affine lanes) with
// barriers between them; all global accounting — collector ejections,
// the end-to-end sequence check, link traversal totals — is either
// per-router/per-link indexed or committed serially in index order
// between the phases. Results are therefore independent of router
// iteration order and of the worker count, and fully deterministic
// for a given seed.
package network

import (
	"fmt"

	"vichar/internal/audit"
	"vichar/internal/config"
	"vichar/internal/faults"
	"vichar/internal/flit"
	"vichar/internal/metrics"
	"vichar/internal/router"
	"vichar/internal/routing"
	"vichar/internal/stats"
	"vichar/internal/topology"
	"vichar/internal/trace"
	"vichar/internal/traffic"
	"vichar/internal/txn"
)

// Network is a complete simulated NoC.
type Network struct {
	cfg  *config.Config
	mesh topology.Mesh

	routers []*router.Router
	nis     []*ni

	// Link slabs in delivery order (DESIGN.md §10), grouped by owning
	// router: flitSlab[flitOff[id]:flitOff[id+1]] and the matching
	// creditSlab range are router id's deliver-phase plan — every link
	// whose delivery mutates state owned by that router: flit links
	// feeding its input buffers, the ejection link of its processing
	// element (staged, see lists), and credit links feeding its
	// output views or its network interface's view. One link appears in
	// exactly one router's range, which is what makes the deliver phase
	// shardable by router ID (shards own contiguous ID ranges,
	// shardBounds); deliverShard walks each range as one streaming
	// sweep, and snapshots and packet collection walk the slabs in the
	// same order.
	flitSlab   []flitLink
	creditSlab []creditLink
	flitOff    []int32
	creditOff  []int32

	// lists[s] is shard s's mid-cycle staging (shardLists): its staged
	// ejections and its routers' wake tags, drained by Step's serial
	// phases.
	lists []shardLists

	// Active-router worklist (DESIGN.md §10). computeActive[id] marks
	// routers the compute phase must tick; it is cleared by the
	// owning shard once router id is quiescent, its NI idle and no
	// fault plan is attached, and re-set by the same shard's deliver
	// pass or by the serial injection path. deliverLinks[id] has one
	// bit per plan link of router id that may carry payloads — flit
	// links in the low 16 bits and credit links in the high 16, each in
	// slab order; a router with no bit set sleeps in the deliver phase.
	// The owning shard clears a link's bit once the link has drained,
	// and sends re-arm it through the writer's shard list: its wakes
	// hold the tags (linkTag) of links the shard's routers made
	// non-empty during compute, drained serially after the compute
	// barrier, so activation is deterministic (a pure OR over an
	// order-free set) and race-free at any worker count. Skipped links
	// and routers are exact no-ops, so results stay bit-identical to the
	// always-tick kernel.
	computeActive []bool
	deliverLinks  []uint32

	// wlStats tallies worklist effectiveness per shard: each slot is
	// padded to its own cache line and written once per shard call, by
	// the lane that owns the shard; WorklistStats sums them on demand.
	// Snapshots carry only the sum, which a restore puts in slot 0.
	wlStats []shardTally

	// shardCount is the number of kernel shards (1 = serial); exec is
	// the lazily created lane executor behind runSharded, which runs
	// them on at most GOMAXPROCS lanes.
	shardCount int
	exec       *execHandle

	// Phase closures bound once at construction: Step and audit hand
	// runSharded (and the traffic generator) the same values every
	// cycle instead of allocating a fresh closure per call. The shard
	// methods read n.now themselves, so no per-cycle capture is needed.
	deliverFn      func(shard int)
	computeFn      func(shard int)
	auditLinksFn   func(shard int)
	auditRoutersFn func(shard int)
	injectFn       func(src, dst, size int)

	// samplePerNode is sample's per-node VC-usage scratch; the
	// collector consumes the values synchronously and never retains
	// the slice.
	samplePerNode []float64

	// auditedLinks holds every credit-carrying link's conservation
	// parties; checked per step when cfg.Audit is set. auditStates and
	// auditErrs are per-shard scratch for the sharded audit pass.
	auditedLinks []auditedLink
	auditStates  [][]audit.LinkState
	auditErrs    []error

	// fplan is the compiled fault schedule (nil without Config.Faults);
	// faultLinks collects every inter-router link's fault state, in
	// linkMeta order, so totalCounters and the registry's store pass can
	// read the drop/corrupt/retransmit tallies.
	fplan      *faults.Plan
	faultLinks []*faults.LinkState

	// arena owns the struct-of-arrays backing store for every router's
	// and credit view's hot state (DESIGN.md §10).
	arena *router.Arena

	gen       *traffic.Generator
	collector *stats.Collector

	// txn is the network-interface transaction layer (nil without
	// Config.Txn); every hook on the hot path hides behind this one
	// pointer check so fire-and-forget runs stay byte-identical.
	txn *txn.Engine

	now    int64
	nextID uint64

	// Inter-router channel load accounting: one entry per directed
	// link, with snapshots bracketing the measurement window.
	linkMeta      []stats.ChannelLoad
	linkFlits     []uint64
	linkStartSnap []uint64
	linkEndSnap   []uint64

	startSnap stats.Counters
	endSnap   stats.Counters
	haveStart bool
	haveEnd   bool

	// created and ejectedFlits count packets generated and flits
	// consumed at their destination over the whole run (the collector's
	// flit count covers the measurement window only).
	created      int64
	ejectedFlits uint64

	// wd is the forward-progress watchdog's mark (watchdog.go).
	wd watchdog

	// free is the packet free list (DESIGN.md §10): records — a packet
	// with its own flit storage — that finished a trip and wait for the
	// next. SendTxnPacket pops in the serial inject sub-phase and eject
	// pushes in the serial commit sub-phase, so the list needs no lock
	// and behaves identically at every worker count. Packets handed to
	// a caller by InjectPacket* never enter it.
	free []*flit.Packet

	// schedule replays a recorded trace (sorted by cycle);
	// scheduleIdx is the next entry to inject.
	schedule    []trace.Entry
	scheduleIdx int

	// recorded accumulates creation events when recording is on.
	recording bool
	recorded  []trace.Entry

	// obs is the live observability layer (obs.go); nil when
	// Config.Metrics and Config.TraceEvents are both off. rec is the
	// serial phase's event recorder (nil unless tracing) and storeFn
	// the registry's store pass, bound once like the phase closures.
	obs     *obsState
	rec     *metrics.Recorder
	storeFn func(vals []uint64)
}

// New builds and wires a network for the configuration. It panics on
// an invalid configuration; call cfg.Validate first when the config
// comes from untrusted input.
func New(cfg *config.Config) *Network {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("network: %v", err))
	}
	mesh := topology.New(cfg.Width, cfg.Height)
	mesh.Torus = cfg.Torus
	n := &Network{
		cfg:       cfg,
		mesh:      mesh,
		routers:   make([]*router.Router, mesh.Nodes()),
		nis:       make([]*ni, mesh.Nodes()),
		collector: stats.NewCollector(cfg.WarmupPackets, cfg.MeasurePackets, mesh.Nodes()),
		wd:        watchdog{window: wedgeWindow(cfg)},
	}
	n.shardCount = kernelShards(cfg.Workers, mesh.Nodes())
	n.auditStates = make([][]audit.LinkState, n.shardCount)
	n.auditErrs = make([]error, n.shardCount)
	n.computeActive = make([]bool, mesh.Nodes())
	n.deliverLinks = make([]uint32, mesh.Nodes())
	n.lists = make([]shardLists, n.shardCount)
	n.wlStats = make([]shardTally, n.shardCount)
	for id := range n.computeActive {
		n.computeActive[id] = true
	}
	// The struct-of-arrays arena: routers and credit views below draw
	// their hot per-(router, port, VC) state from it in ascending id
	// order, laying the whole mesh's tick-path state out contiguously.
	n.arena = router.NewArena(cfg, mesh)
	for id := range n.routers {
		n.routers[id] = router.NewIn(n.arena, id, cfg, mesh)
	}

	// Fault model: compile the schedule (nil when disabled), hand each
	// router its stall/dead-link state, and — when links are scheduled
	// to die — switch every router's escape routing to the up*/down*
	// tree over the links that survive the whole run (planned-outage
	// model, see routing.EscapeTree). Validate guarantees the surviving
	// links still connect the mesh, so tree construction cannot fail.
	n.fplan = faults.NewPlan(cfg)
	if n.fplan != nil {
		for id, r := range n.routers {
			r.SetFaults(n.fplan.Router(id))
		}
		if n.fplan.HasHardFaults() {
			tree, err := routing.NewEscapeTree(mesh, func(node, port int) bool {
				return !n.fplan.LinkEverDead(node, port)
			})
			if err != nil {
				//vichar:invariant Config.Validate rejects fault schedules that disconnect the mesh
				panic(fmt.Sprintf("network: %v", err))
			}
			for _, r := range n.routers {
				r.SetEscapeTree(tree)
			}
		}
	}

	// Observability layer, built before link wiring so every component
	// can be handed its owner's event recorder (nil unless tracing).
	if cfg.Metrics || cfg.TraceEvents > 0 {
		n.obs = newObsState(cfg, mesh.Nodes())
		n.rec = n.obs.recorder(0)
		for id, r := range n.routers {
			r.SetRecorder(n.obs.recorder(1 + id))
		}
	}

	// Link slabs: every flit and credit link of the mesh lives in one
	// contiguous array each, grouped by owning router in wiring order,
	// so the deliver phase walks each router's links as one contiguous
	// slab range (see the flitSlab field comment). Per-owner capacities
	// are exact: Degree incoming inter-router flit links plus ejection
	// and injection per node; Degree outgoing reverse channels plus the
	// NI credit per node. The cursor-guarded takes below panic rather
	// than reallocate, which would orphan the already-wired pointers.
	nLinks := 0
	nodes := mesh.Nodes()
	n.flitOff = make([]int32, nodes+1)
	n.creditOff = make([]int32, nodes+1)
	for id := 0; id < nodes; id++ {
		d := mesh.Degree(id)
		nLinks += d
		n.flitOff[id+1] = n.flitOff[id] + int32(d) + 2
		n.creditOff[id+1] = n.creditOff[id] + int32(d) + 1
	}
	n.flitSlab = make([]flitLink, nLinks+2*nodes)
	n.creditSlab = make([]creditLink, nLinks+nodes)
	// In-flight rings, sized once and carved from one array per kind. A
	// link accepts one payload per cycle and delivers it a fixed delay
	// later, so at most delay are in flight when the next is sent; a
	// faulted link's retransmission hold blocks the flits behind it, and
	// then what bounds the queue is the downstream buffer's credit.
	interCap := ringCap(router.FlitDelay + 1)
	if n.fplan != nil {
		interCap = ringCap(max(router.FlitDelay+1, cfg.BufferSlots))
	}
	ejectCap, injectCap, creditCap := ringCap(router.FlitDelay+1), ringCap(1+1), ringCap(router.CreditDelay+1)
	flitRings := make([]timedFlit, nLinks*interCap+nodes*(ejectCap+injectCap))
	creditRings := make([]timedCredit, (nLinks+nodes)*creditCap)
	flitRing := func(c int) ring[timedFlit] {
		r := ring[timedFlit]{buf: flitRings[:c:c]}
		flitRings = flitRings[c:]
		return r
	}
	creditRing := func() ring[timedCredit] {
		r := ring[timedCredit]{buf: creditRings[:creditCap:creditCap]}
		creditRings = creditRings[creditCap:]
		return r
	}
	// Exact capacity up front: links hold *count pointers into this
	// array, so it must never reallocate.
	n.linkFlits = make([]uint64, 0, nLinks)
	fCur := make([]int32, nodes)
	cCur := make([]int32, nodes)
	copy(fCur, n.flitOff)
	copy(cCur, n.creditOff)
	// lists[shard[id]] is the staging of the shard that owns router id:
	// a link's wake tag goes to its writer's, an ejection to its node's.
	shard := make([]*shardLists, nodes)
	for s := range n.lists {
		lo, hi := n.shardBounds(s)
		for id := lo; id < hi; id++ {
			shard[id] = &n.lists[s]
		}
	}
	takeFlitLink := func(l flitLink) *flitLink {
		i := fCur[l.owner]
		if i == n.flitOff[l.owner+1] {
			//vichar:invariant the per-owner link counts above are the same Degree sums the wiring loops walk
			panic(fmt.Sprintf("network: flit-link slab overflow at owner %d", l.owner))
		}
		fCur[l.owner] = i + 1
		p := &n.flitSlab[i]
		*p = l
		p.tag = linkTag(l.owner, int(i-n.flitOff[l.owner]))
		return p
	}
	takeCreditLink := func(l creditLink) *creditLink {
		i := cCur[l.owner]
		if i == n.creditOff[l.owner+1] {
			//vichar:invariant the per-owner link counts above are the same Degree sums the wiring loops walk
			panic(fmt.Sprintf("network: credit-link slab overflow at owner %d", l.owner))
		}
		cCur[l.owner] = i + 1
		p := &n.creditSlab[i]
		*p = l
		p.tag = linkTag(l.owner, creditBit0+int(i-n.creditOff[l.owner]))
		return p
	}

	// Inter-router links: one flit link (downstream) and one credit
	// link (upstream) per connected cardinal port pair.
	for id, r := range n.routers {
		for port := 0; port < topology.Local; port++ {
			nb, ok := mesh.Neighbor(id, port)
			if !ok {
				continue
			}
			dst := n.routers[nb]
			inPort := topology.Opposite(port)

			linkIdx := len(n.linkMeta)
			n.linkMeta = append(n.linkMeta, stats.ChannelLoad{From: id, To: nb, Port: port})
			n.linkFlits = append(n.linkFlits, 0)

			// Delivery mutates the downstream router's input buffer
			// (and this link's own flit counter), so the link belongs
			// to the receiver's deliver-phase plan — and stages its
			// events on the receiver's recorder. The same ownership
			// covers the link's fault state: only the receiver's shard
			// ticks it.
			// Worklist: router id's compute writes this link; router
			// nb's deliver drains it.
			fl := takeFlitLink(flitLink{
				delay: router.FlitDelay, q: flitRing(interCap), owner: nb, wake: &shard[id].wakes,
				dst: dst, inPort: inPort, count: &n.linkFlits[linkIdx],
				rec: n.obs.recorder(1 + nb),
			})
			if fs := n.fplan.Link(id, port); fs != nil {
				fl.faults = fs
				n.faultLinks = append(n.faultLinks, fs)
			}

			// Credit delivery mutates the upstream router's output
			// view, so the reverse channel belongs to the upstream
			// router's plan; the downstream router nb writes it.
			cl := takeCreditLink(creditLink{
				delay: router.CreditDelay, q: creditRing(), owner: id, wake: &shard[nb].wakes,
				dst: r, outPort: port,
			})

			view := router.NewCreditViewIn(n.arena, cfg)
			r.ConnectOutput(port, fl, view)
			dst.ConnectInputCredit(inPort, cl)
			n.auditedLinks = append(n.auditedLinks, auditedLink{
				name: fmt.Sprintf("%d->%d", id, nb),
				view: view, fl: fl, cl: cl, buf: dst.InputBuffer(inPort),
			})
		}
	}

	// The transaction layer, when on, is built before the local ports
	// so each responder node's admission gate can be wired into its
	// ejection sink view.
	if cfg.Txn.Enabled {
		n.txn = txn.New(cfg, mesh, n)
	}

	// Local ports: ejection to the sink and injection from the NI.
	for id, r := range n.routers {
		// Ejection: router local output -> processing element. The
		// sink mutates network-global state (collector, sequence
		// check, snapshots), so delivery only stages the flit; the
		// serial commit sub-phase of Step ejects staged flits in
		// ascending node order. A responder node's finite service
		// queue gates its sink's ejection grants.
		ej := takeFlitLink(flitLink{
			delay: router.FlitDelay, q: flitRing(ejectCap), owner: id, wake: &shard[id].wakes,
			eject: &shard[id].ejects,
		})
		sink := router.NewSinkView()
		if n.txn != nil {
			if mc := n.txn.Responder(id); mc != nil {
				sink = router.NewSinkViewWith(mc)
			}
		}
		r.ConnectOutput(topology.Local, ej, sink)

		// Injection: NI -> router local input (one-cycle channel).
		s := &ni{
			node:    id,
			view:    router.NewCreditViewIn(n.arena, cfg),
			streams: make([]niStream, cfg.VCClasses()),
			txn:     n.txn,
			rec:     n.obs.recorder(1 + id),
		}
		for c := range s.streams {
			lo, hi := router.Span(cfg, c, false)
			s.streams[c].lo, s.streams[c].n = lo, hi-lo
		}
		inj := takeFlitLink(flitLink{
			delay: 1, q: flitRing(injectCap), owner: id, wake: &shard[id].wakes,
			dst: r, inPort: topology.Local,
		})
		s.link = inj

		cl := takeCreditLink(creditLink{
			delay: router.CreditDelay, q: creditRing(), owner: id, wake: &shard[id].wakes,
			view: s.view,
		})
		r.ConnectInputCredit(topology.Local, cl)
		n.auditedLinks = append(n.auditedLinks, auditedLink{
			name: fmt.Sprintf("ni%d->%d", id, id),
			view: s.view, fl: inj, cl: cl, buf: r.InputBuffer(topology.Local),
		})

		n.nis[id] = s
	}

	n.gen = traffic.New(cfg, mesh)
	for id := range n.deliverLinks {
		n.deliverLinks[id] = n.planLinks(id)
	}

	// Bind the phase closures once; Step and audit reuse them every
	// cycle (see the field comments on Network).
	n.deliverFn = n.deliverShard
	n.computeFn = n.computeShard
	n.auditLinksFn = n.auditLinksShard
	n.auditRoutersFn = n.auditRoutersShard
	n.injectFn = n.injectGenerated
	n.registerSeries()
	n.samplePerNode = make([]float64, mesh.Nodes())
	return n
}

// creditBit0 is the deliverLinks bit of a router's first credit link;
// its flit links take the bits below. A router owns at most Degree + 2
// flit links and Degree + 1 credit links, and Degree is at most 4.
const creditBit0 = 16

// linkTag is the wake tag of the link at deliverLinks bit b of router
// owner: the serial wake merge sets bit tag&31 of deliverLinks[tag>>5].
func linkTag(owner, b int) int { return owner<<5 | b }

// planLinks returns the deliverLinks mask with every plan link of
// router id set.
func (n *Network) planLinks(id int) uint32 {
	flits := uint32(n.flitOff[id+1] - n.flitOff[id])
	credits := uint32(n.creditOff[id+1] - n.creditOff[id])
	return 1<<flits - 1 | (1<<credits-1)<<creditBit0
}
