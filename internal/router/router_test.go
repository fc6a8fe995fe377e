package router

import (
	"errors"
	"math"
	"testing"
	"unsafe"

	"vichar/internal/buffers"
	"vichar/internal/config"
	"vichar/internal/flit"
	"vichar/internal/topology"
)

// stubFlitConn records sent flits with their send cycle.
type stubFlitConn struct {
	sent []struct {
		f  *flit.Flit
		at int64
	}
}

func (s *stubFlitConn) SendFlit(f *flit.Flit, now int64) {
	s.sent = append(s.sent, struct {
		f  *flit.Flit
		at int64
	}{f, now})
}

// stubCreditConn records sent credits with their send cycle.
type stubCreditConn struct {
	sent []struct {
		c  flit.Credit
		at int64
	}
}

func (s *stubCreditConn) SendCredit(c flit.Credit, now int64) {
	s.sent = append(s.sent, struct {
		c  flit.Credit
		at int64
	}{c, now})
}

// harness wires one router with stub connections on every port.
type harness struct {
	r       *Router
	mesh    topology.Mesh
	flits   [5]*stubFlitConn
	credits [5]*stubCreditConn
}

func newHarness(cfg *config.Config, node int) *harness {
	mesh := topology.New(cfg.Width, cfg.Height)
	h := &harness{r: New(node, cfg, mesh), mesh: mesh}
	for p := 0; p < 5; p++ {
		h.flits[p] = &stubFlitConn{}
		h.credits[p] = &stubCreditConn{}
		var view CreditView
		if p == topology.Local {
			view = NewSinkView()
		} else {
			view = NewCreditView(cfg)
		}
		h.r.ConnectOutput(p, h.flits[p], view)
		h.r.ConnectInputCredit(p, h.credits[p])
	}
	return h
}

// injectPacket delivers a whole packet into an input port, one flit
// per cycle starting at cycle start, ticking the router each cycle,
// and continues ticking until cycle end.
func (h *harness) runPacket(t *testing.T, inPort, vc, dst int, start, end int64) *flit.Packet {
	t.Helper()
	p := &flit.Packet{ID: 1, Dst: dst, Size: 4}
	fs := flit.MakeFlits(p)
	for now := start; now <= end; now++ {
		idx := int(now - start)
		if idx < len(fs) {
			fs[idx].VC = vc
			h.r.ReceiveFlit(inPort, fs[idx], now)
		}
		h.r.Tick(now)
	}
	return p
}

func genericCfg() *config.Config {
	cfg := config.Default()
	return &cfg
}

func vicharCfg() *config.Config {
	cfg := config.Default()
	cfg.Arch = config.ViChaR
	return &cfg
}

// The 4-stage pipeline: a head arriving at cycle t must win SA at
// t+2 (RC at t, VA at t+1, SA at t+2) and leave on the link then.
func TestPipelineTiming(t *testing.T) {
	for _, cfg := range []*config.Config{genericCfg(), vicharCfg()} {
		cfg := cfg
		t.Run(cfg.Arch.String(), func(t *testing.T) {
			// Router at (1,1) on the 8x8 mesh; destination due East.
			node := topology.New(cfg.Width, cfg.Height).Node(1, 1)
			h := newHarness(cfg, node)
			dst := h.mesh.Node(5, 1)

			h.runPacket(t, topology.West, 0, dst, 1, 10)

			out := h.flits[topology.East].sent
			if len(out) != 4 {
				t.Fatalf("forwarded %d flits, want 4", len(out))
			}
			if out[0].at != 3 {
				t.Fatalf("head left at cycle %d, want 3 (arrive 1, RC 1, VA 2, SA 3)", out[0].at)
			}
			// Body flits follow at one per cycle.
			for i := 1; i < 4; i++ {
				if out[i].at != out[i-1].at+1 {
					t.Fatalf("flit %d left at %d, previous at %d", i, out[i].at, out[i-1].at)
				}
			}
			// All flits carry the same granted output VC.
			for i := 1; i < 4; i++ {
				if out[i].f.VC != out[0].f.VC {
					t.Fatalf("flit %d on vc %d, head on %d", i, out[i].f.VC, out[0].f.VC)
				}
			}
		})
	}
}

// Every forwarded flit returns exactly one upstream credit on the
// input VC it occupied, with the tail marked as a release.
func TestCreditsReturned(t *testing.T) {
	for _, cfg := range []*config.Config{genericCfg(), vicharCfg()} {
		cfg := cfg
		t.Run(cfg.Arch.String(), func(t *testing.T) {
			node := topology.New(cfg.Width, cfg.Height).Node(1, 1)
			h := newHarness(cfg, node)
			h.runPacket(t, topology.West, 2, h.mesh.Node(5, 1), 1, 10)

			creds := h.credits[topology.West].sent
			if len(creds) != 4 {
				t.Fatalf("returned %d credits, want 4", len(creds))
			}
			for i, c := range creds {
				if c.c.VC != 2 {
					t.Fatalf("credit %d on vc %d, want 2", i, c.c.VC)
				}
				wantRelease := i == 3
				if c.c.ReleaseVC != wantRelease {
					t.Fatalf("credit %d release=%v", i, c.c.ReleaseVC)
				}
			}
		})
	}
}

// Ejection: a packet addressed to this node leaves through the local
// port.
func TestLocalEjection(t *testing.T) {
	cfg := genericCfg()
	node := topology.New(cfg.Width, cfg.Height).Node(2, 2)
	h := newHarness(cfg, node)
	h.runPacket(t, topology.North, 0, node, 1, 10)
	if len(h.flits[topology.Local].sent) != 4 {
		t.Fatalf("ejected %d flits, want 4", len(h.flits[topology.Local].sent))
	}
	for p := 0; p < 4; p++ {
		if len(h.flits[p].sent) != 0 {
			t.Fatalf("flits leaked out of port %s", topology.PortName(p))
		}
	}
}

// XY routing: the router must pick the dimension-ordered port.
func TestRouteSelection(t *testing.T) {
	cfg := genericCfg()
	node := topology.New(cfg.Width, cfg.Height).Node(3, 3)
	cases := []struct {
		dstX, dstY int
		port       int
	}{
		{6, 3, topology.East},
		{0, 3, topology.West},
		{3, 0, topology.North},
		{3, 6, topology.South},
		{6, 6, topology.East}, // X first
	}
	for _, c := range cases {
		h := newHarness(cfg, node)
		dst := h.mesh.Node(c.dstX, c.dstY)
		h.runPacket(t, topology.Local, 0, dst, 1, 10)
		if got := len(h.flits[c.port].sent); got != 4 {
			t.Errorf("dst (%d,%d): port %s carried %d flits, want 4",
				c.dstX, c.dstY, topology.PortName(c.port), got)
		}
	}
}

// Without downstream credit, nothing moves; restoring credit resumes.
func TestBackpressure(t *testing.T) {
	cfg := genericCfg()
	node := topology.New(cfg.Width, cfg.Height).Node(1, 1)
	h := newHarness(cfg, node)
	// Exhaust every VC of the East output (atomic allocation: claim
	// all 4 VCs).
	view := h.r.OutputView(topology.East)
	for i := 0; i < 4; i++ {
		if _, ok := alloc(view, 0, false); !ok {
			t.Fatal("setup alloc failed")
		}
	}
	h.runPacket(t, topology.West, 0, h.mesh.Node(5, 1), 1, 20)
	if len(h.flits[topology.East].sent) != 0 {
		t.Fatal("flits moved without a granted VC")
	}
	// Release one VC (its phantom packet's tail "was sent") and
	// continue ticking; no slot credits moved, so none return.
	gv := view.(*genericView)
	gv.open[1] = false
	for now := int64(21); now <= 30; now++ {
		h.r.Tick(now)
	}
	if len(h.flits[topology.East].sent) != 4 {
		t.Fatalf("after credit restore %d flits moved, want 4", len(h.flits[topology.East].sent))
	}
}

// ViChaR grants at most one new VC per output port per cycle (the
// single Token Dispenser grant of Figure 7(b)).
func TestViCharOneGrantPerOutputPerCycle(t *testing.T) {
	cfg := vicharCfg()
	node := topology.New(cfg.Width, cfg.Height).Node(1, 1)
	h := newHarness(cfg, node)

	// Two heads on different VCs of different input ports, both
	// wanting East.
	dst := h.mesh.Node(5, 1)
	p1 := &flit.Packet{ID: 1, Dst: dst, Size: 1}
	p2 := &flit.Packet{ID: 2, Dst: dst, Size: 1}
	f1 := flit.MakeFlits(p1)[0]
	f2 := flit.MakeFlits(p2)[0]
	f1.VC, f2.VC = 0, 1
	h.r.ReceiveFlit(topology.West, f1, 1)
	h.r.ReceiveFlit(topology.North, f2, 1)

	h.r.Tick(1) // RC both
	h.r.Tick(2) // VA: only one grant for East
	if got := h.r.OutputView(topology.East).OutstandingVCs(); got != 1 {
		t.Fatalf("%d VC grants in one cycle, want 1", got)
	}
	h.r.Tick(3) // VA grants the second
	if got := h.r.OutputView(topology.East).OutstandingVCs(); got != 2 {
		t.Fatalf("second grant missing: %d", got)
	}
}

// The deadlock-threshold escape path: a waiting packet under adaptive
// routing must re-channel onto the escape VC of the XY port.
func TestEscapeAfterThreshold(t *testing.T) {
	cfg := vicharCfg()
	cfg.Routing = config.MinimalAdaptive
	cfg.EscapeVCs = 1
	cfg.DeadlockThreshold = 5
	node := topology.New(cfg.Width, cfg.Height).Node(1, 1)
	h := newHarness(cfg, node)
	dst := h.mesh.Node(5, 5) // SE: candidates are East and South

	// Drain all normal tokens of both candidate outputs.
	for _, p := range []int{topology.East, topology.South} {
		view := h.r.OutputView(p)
		for view.FreeVC(0, false, 0) >= 0 {
			alloc(view, 0, false)
		}
	}

	p := &flit.Packet{ID: 1, Dst: dst, Size: 1}
	f := flit.MakeFlits(p)[0]
	f.VC = 0
	h.r.ReceiveFlit(topology.West, f, 1)
	for now := int64(1); now <= 20; now++ {
		h.r.Tick(now)
	}
	if !p.Escaped {
		t.Fatal("packet never escaped past the deadlock threshold")
	}
	out := h.flits[topology.East].sent // XY: East first
	if len(out) != 1 {
		t.Fatalf("escape packet not forwarded on the XY port (%d flits)", len(out))
	}
	// The granted VC must be the escape token (highest ID).
	if out[0].f.VC != cfg.BufferSlots-1 {
		t.Fatalf("escape flit on vc %d, want %d", out[0].f.VC, cfg.BufferSlots-1)
	}
}

// Activity counters reflect the four forwarded flits.
func TestCounters(t *testing.T) {
	cfg := genericCfg()
	node := topology.New(cfg.Width, cfg.Height).Node(1, 1)
	h := newHarness(cfg, node)
	h.runPacket(t, topology.West, 0, h.mesh.Node(5, 1), 1, 10)
	c := h.r.Counters()
	if c.BufferWrites != 4 || c.BufferReads != 4 || c.XbarTraversals != 4 {
		t.Fatalf("flit counters wrong: %+v", c)
	}
	if c.VCGrants != 1 {
		t.Fatalf("VC grants %d, want 1", c.VCGrants)
	}
	if c.VAOps < 1 || c.SAOps < 4 {
		t.Fatalf("allocator ops implausible: %+v", c)
	}
}

// InUseVCsPerPort and Occupied see a buffered, waiting packet.
func TestOccupancyProbes(t *testing.T) {
	cfg := genericCfg()
	node := topology.New(cfg.Width, cfg.Height).Node(1, 1)
	h := newHarness(cfg, node)
	// Block East completely so the packet stays resident.
	view := h.r.OutputView(topology.East)
	for i := 0; i < 4; i++ {
		alloc(view, 0, false)
	}
	h.runPacket(t, topology.West, 0, h.mesh.Node(5, 1), 1, 8)
	if h.r.Occupied() != 4 {
		t.Fatalf("occupied %d, want 4", h.r.Occupied())
	}
	if got := h.r.InUseVCsPerPort(); got != 1.0/5 {
		t.Fatalf("in-use VCs per port %.3f, want 0.2", got)
	}
	if h.r.TotalSlots() != 80 {
		t.Fatalf("total slots %d, want 80", h.r.TotalSlots())
	}
}

// A body flit at the head of an idle VC is a protocol violation and
// must panic loudly rather than corrupt state.
func TestBodyAtIdleVCPanics(t *testing.T) {
	cfg := genericCfg()
	node := topology.New(cfg.Width, cfg.Height).Node(1, 1)
	h := newHarness(cfg, node)
	f := &flit.Flit{Pkt: &flit.Packet{ID: 1, Dst: 0, Size: 4}, Type: flit.Body, Seq: 1, VC: 0}
	h.r.ReceiveFlit(topology.West, f, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("stray body flit did not panic")
		}
	}()
	h.r.Tick(1)
}

// Buffer overflow (a flow-control violation) must panic.
func TestReceiveOverflowPanics(t *testing.T) {
	cfg := genericCfg()
	node := topology.New(cfg.Width, cfg.Height).Node(1, 1)
	h := newHarness(cfg, node)
	defer func() {
		if recover() == nil {
			t.Fatal("overflow did not panic")
		}
	}()
	for i := 0; i < 6; i++ {
		f := &flit.Flit{Pkt: &flit.Packet{ID: uint64(i), Dst: 9, Size: 1}, Type: flit.HeadTail, VC: 0}
		h.r.ReceiveFlit(topology.West, f, 1)
	}
}

// The speculative organization must move the head through VA and SA
// in the same cycle: it leaves at cycle 2 instead of 3.
func TestSpeculativePipelineTiming(t *testing.T) {
	for _, arch := range []config.BufferArch{config.Generic, config.ViChaR} {
		cfg := config.Default()
		cfg.Arch = arch
		cfg.Speculative = true
		node := topology.New(cfg.Width, cfg.Height).Node(1, 1)
		h := newHarness(&cfg, node)
		h.runPacket(t, topology.West, 0, h.mesh.Node(5, 1), 1, 10)
		out := h.flits[topology.East].sent
		if len(out) != 4 {
			t.Fatalf("%v: forwarded %d flits", arch, len(out))
		}
		if out[0].at != 2 {
			t.Fatalf("%v: speculative head left at %d, want 2", arch, out[0].at)
		}
	}
}

// Head-of-line blocking, the paper's Figure 3 scenario, demonstrated
// deterministically: two packets share an FC-CB queue; the first is
// blocked, so the second — bound for a free output — cannot move.
// Under ViChaR each packet owns a VC, and the second proceeds.
func TestHeadOfLineBlocking(t *testing.T) {
	run := func(cfg *config.Config, vc2 int) (southFlits int) {
		node := topology.New(cfg.Width, cfg.Height).Node(1, 1)
		h := newHarness(cfg, node)
		// Saturate every East VC so packets bound East stall in VA.
		east := h.r.OutputView(topology.East)
		for east.FreeVC(0, false, 0) >= 0 {
			alloc(east, 0, false)
		}
		dstEast := h.mesh.Node(5, 1)
		dstSouth := h.mesh.Node(1, 5)
		p1 := &flit.Packet{ID: 1, Dst: dstEast, Size: 2}
		p2 := &flit.Packet{ID: 2, Dst: dstSouth, Size: 2}
		now := int64(1)
		for _, f := range flit.MakeFlits(p1) {
			f.VC = 0
			h.r.ReceiveFlit(topology.West, f, now)
			h.r.Tick(now)
			now++
		}
		for _, f := range flit.MakeFlits(p2) {
			f.VC = vc2
			h.r.ReceiveFlit(topology.West, f, now)
			h.r.Tick(now)
			now++
		}
		for ; now <= 30; now++ {
			h.r.Tick(now)
		}
		return len(h.flits[topology.South].sent)
	}

	// FC-CB: both packets in queue 0 — head-of-line blocking.
	fccb := config.Default()
	fccb.Arch = config.FCCB
	if got := run(&fccb, 0); got != 0 {
		t.Fatalf("FC-CB: blocked-behind packet moved %d flits", got)
	}
	// ViChaR: the second packet has its own VC and routes South.
	vic := config.Default()
	vic.Arch = config.ViChaR
	if got := run(&vic, 1); got != 2 {
		t.Fatalf("ViChaR: free packet moved %d flits, want 2", got)
	}
}

func TestReceiveCredit(t *testing.T) {
	cfg := genericCfg()
	node := topology.New(cfg.Width, cfg.Height).Node(1, 1)
	h := newHarness(cfg, node)
	view := h.r.OutputView(topology.East)
	vc, _ := alloc(view, 0, false)
	h.r.OutputView(topology.East).OnSend(headFlit(vc))
	before := view.FreeSlots()
	h.r.ReceiveCredit(topology.East, flit.Credit{VC: vc})
	if view.FreeSlots() != before+1 {
		t.Fatal("credit not applied through ReceiveCredit")
	}
}

func TestAccessors(t *testing.T) {
	cfg := genericCfg()
	node := topology.New(cfg.Width, cfg.Height).Node(2, 1)
	h := newHarness(cfg, node)
	if h.r.ID() != node {
		t.Fatal("ID wrong")
	}
	if h.r.InputBuffer(0) == nil {
		t.Fatal("InputBuffer nil")
	}
	if s := h.r.DebugState(); s == "" {
		t.Fatal("DebugState empty")
	}
}

// Adaptive routing's VA prefers the candidate output with more free
// downstream slots.
func TestAdaptiveCreditScoring(t *testing.T) {
	cfg := vicharCfg()
	cfg.Routing = config.MinimalAdaptive
	cfg.EscapeVCs = 1
	node := topology.New(cfg.Width, cfg.Height).Node(1, 1)
	h := newHarness(cfg, node)
	dst := h.mesh.Node(5, 5) // SE: candidates East and South

	// Congest East: burn most of its slot credits.
	east := h.r.OutputView(topology.East)
	vc, _ := alloc(east, 0, false)
	for i := 0; i < 10; i++ {
		f := headFlit(vc)
		east.OnSend(f)
	}

	p := &flit.Packet{ID: 1, Dst: dst, Size: 2}
	now := int64(1)
	for _, f := range flit.MakeFlits(p) {
		f.VC = 0
		h.r.ReceiveFlit(topology.West, f, now)
		h.r.Tick(now)
		now++
	}
	for ; now <= 10; now++ {
		h.r.Tick(now)
	}
	if len(h.flits[topology.South].sent) != 2 {
		t.Fatalf("adaptive VA did not prefer the uncongested South port (S=%d E=%d)",
			len(h.flits[topology.South].sent), len(h.flits[topology.East].sent))
	}
}

// The VC state machine is one record per (port, VC) — 80 per ViC-16
// router — so its size is part of the per-router memory budget
// (network.TestHeapBytesPerRouterBudget, whose account counts it at
// this size): 64 bytes before the narrowing, 24 since — the packet
// pointer, the VA wait stamp and the packed route candidates.
func TestVCStateSize(t *testing.T) {
	if got := unsafe.Sizeof(vcState{}); got > 24 {
		t.Fatalf("vcState is %d bytes, budget 24", got)
	}
}

// An empty VC has no head at any cycle, NeverReady included: the
// loaded-checkpoint checks (wormholeOK here, checkLinkVCs in the
// network) probe Front at math.MaxInt64 for "the head flit, readable
// yet or not", and there an empty VC's stamp equals the probe cycle.
// Every organization must answer nil, for a never-used VC and for a
// drained one alike, and Pop must refuse.
func TestFrontAtNeverReadyOnEmptyVC(t *testing.T) {
	for _, arch := range []config.BufferArch{config.Generic, config.ViChaR, config.DAMQ, config.FCCB} {
		cfg := config.Default()
		cfg.Arch = arch
		b := newBuffer(&cfg, nil)
		f := &flit.Flit{Pkt: &flit.Packet{ID: 1, Size: 1}, Type: flit.HeadTail, VC: 1}
		if err := b.Write(f, 3); err != nil {
			t.Fatalf("%v: %v", arch, err)
		}
		if b.Front(1, math.MaxInt64) != f {
			t.Fatalf("%v: the buffered head is not visible at math.MaxInt64", arch)
		}
		if _, err := b.Pop(1, 100); err != nil {
			t.Fatalf("%v: %v", arch, err)
		}
		for v := 0; v < b.MaxVCs(); v++ {
			if b.ReadyAt()[v] != buffers.NeverReady {
				t.Errorf("%v: empty VC %d is stamped %d", arch, v, b.ReadyAt()[v])
			}
			if got := b.Front(v, math.MaxInt64); got != nil {
				t.Errorf("%v: empty VC %d answers %v at math.MaxInt64", arch, v, got)
			}
			if _, err := b.Pop(v, math.MaxInt64); !errors.Is(err, buffers.ErrEmpty) {
				t.Errorf("%v: Pop of empty VC %d at math.MaxInt64 returned %v", arch, v, err)
			}
		}
	}
}

// One ViChaR VC may hold the whole pool: the Token Dispenser grants a
// packet a VC, and its flits take whatever slots are free, past the
// generic organization's VCDepth. No golden run fills a ViChaR VC
// beyond VCDepth, so this is the check that the buffer newBuffer builds
// for ViChaR is as deep as its pool: BufferSlots flits of one packet
// enter one VC of one port and leave in order.
func TestViChaRVCHoldsWholePool(t *testing.T) {
	cfg := config.Default()
	cfg.Arch = config.ViChaR
	if cfg.BufferSlots <= cfg.VCDepth {
		t.Fatalf("the pool (%d slots) must be deeper than VCDepth (%d)", cfg.BufferSlots, cfg.VCDepth)
	}
	b := newBuffer(&cfg, nil)
	p := &flit.Packet{ID: 1, Size: cfg.BufferSlots}
	p.Materialize()
	const vc = 3
	for i := range p.Size {
		f := p.Flit(i)
		f.VC = vc
		if free := b.FreeSlotsFor(vc); free != p.Size-i {
			t.Fatalf("before flit %d: %d slots free for VC %d, want %d", i, free, vc, p.Size-i)
		}
		if err := b.Write(f, int64(i)); err != nil {
			t.Fatalf("flit %d of %d: %v", i, p.Size, err)
		}
	}
	if b.Len(vc) != p.Size || b.Occupied() != p.Size || b.FreeSlotsFor(vc) != 0 {
		t.Fatalf("VC %d holds %d flits (port %d, %d free), want all %d", vc, b.Len(vc), b.Occupied(), b.FreeSlotsFor(vc), p.Size)
	}
	for i := range p.Size {
		f, err := b.Pop(vc, int64(p.Size+i))
		if err != nil || f != p.Flit(i) {
			t.Fatalf("pop %d: flit %v, %v; want flit %d", i, f, err, i)
		}
	}
	if b.Occupied() != 0 {
		t.Fatalf("%d flits left after draining the VC", b.Occupied())
	}
}
