package txn

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"vichar/internal/config"
	"vichar/internal/flit"
	"vichar/internal/snap"
	"vichar/internal/topology"
)

// fakeNet is a minimal Sender: it assigns packet IDs and records every
// packet the engine asks the network to inject.
type fakeNet struct {
	nextID uint64
	sent   []*flit.Packet
}

func (f *fakeNet) SendTxnPacket(src, dst, size int, kind, class uint8, req uint64) *flit.Packet {
	f.nextID++
	p := &flit.Packet{ID: f.nextID, Src: src, Dst: dst, Size: size, Kind: kind, Class: class, Req: req}
	f.sent = append(f.sent, p)
	return p
}

func (f *fakeNet) take() []*flit.Packet {
	s := f.sent
	f.sent = nil
	return s
}

func testCfg(memEdge bool) *config.Config {
	cfg := config.Default()
	cfg.Width, cfg.Height = 4, 4
	cfg.Txn = config.TxnConfig{
		Enabled:       true,
		Rate:          1,
		Window:        2,
		ReadFrac:      1,
		ServiceCycles: 2,
		QueueDepth:    2,
		MemEdge:       memEdge,
	}
	return &cfg
}

func newEngine(cfg *config.Config) (*Engine, *fakeNet) {
	f := &fakeNet{}
	return New(cfg, topology.New(cfg.Width, cfg.Height), f), f
}

// harness drives an engine over a perfect one-cycle network: packets
// sent in cycle T eject in cycle T+1 (requests subject to the
// responder's admission gate), and response injections drain the NI
// instantly.
type harness struct {
	e        *Engine
	f        *fakeNet
	inflight []*flit.Packet
	now      int64
}

func (h *harness) step() {
	keep := h.inflight[:0]
	for _, p := range h.inflight {
		if r := h.e.Responder(p.Dst); r != nil && p.Class == ClassReq {
			if !r.Peek(int(p.Class)) {
				keep = append(keep, p)
				continue
			}
			r.Admit(int(p.Class))
		}
		h.e.OnEject(p, h.now, true)
	}
	h.inflight = keep
	h.e.Tick(h.now)
	for _, p := range h.f.take() {
		if IsResponse(p.Kind) {
			h.e.OnInjected(p.Src, p)
		}
		h.inflight = append(h.inflight, p)
	}
	h.now++
}

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q, got none", want)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic %v does not contain %q", r, want)
		}
	}()
	fn()
}

func TestKindHelpers(t *testing.T) {
	cases := []struct {
		kind     uint8
		name     string
		req, rsp bool
		class    uint8
		answer   uint8
	}{
		{None, "none", false, false, ClassReq, None},
		{ReadReq, "read-req", true, false, ClassReq, ReadRsp},
		{ReadRsp, "read-rsp", false, true, ClassRsp, None},
		{WriteReq, "write-req", true, false, ClassReq, WriteAck},
		{WriteAck, "write-ack", false, true, ClassRsp, None},
		{PostedWrite, "posted-write", true, false, ClassReq, None},
		{AtomicReq, "atomic-req", true, false, ClassReq, AtomicRsp},
		{AtomicRsp, "atomic-rsp", false, true, ClassRsp, None},
	}
	for _, c := range cases {
		if got := KindName(c.kind); got != c.name {
			t.Errorf("KindName(%d) = %q, want %q", c.kind, got, c.name)
		}
		if got := IsRequest(c.kind); got != c.req {
			t.Errorf("IsRequest(%s) = %v, want %v", c.name, got, c.req)
		}
		if got := IsResponse(c.kind); got != c.rsp {
			t.Errorf("IsResponse(%s) = %v, want %v", c.name, got, c.rsp)
		}
		if got := ClassOf(c.kind); got != c.class {
			t.Errorf("ClassOf(%s) = %d, want %d", c.name, got, c.class)
		}
		if got := responseOf(c.kind); got != c.answer {
			t.Errorf("responseOf(%s) = %s, want %s", c.name, KindName(got), KindName(c.answer))
		}
	}
	if got := KindName(99); got != "kind-99" {
		t.Errorf("KindName(99) = %q, want kind-99", got)
	}
}

func TestNodeRoles(t *testing.T) {
	cfg := testCfg(true)
	e, _ := newEngine(cfg)
	for id := 0; id < 16; id++ {
		edge := id%4 == 0 || id%4 == 3
		if gotResp := e.Responder(id) != nil; gotResp != edge {
			t.Errorf("node %d: responder = %v, want %v (memory-edge)", id, gotResp, edge)
		}
		if gotReq := e.reqs[id].stream != nil; gotReq != !edge {
			t.Errorf("node %d: requester = %v, want %v (memory-edge)", id, gotReq, !edge)
		}
	}
	if len(e.requesters) != 8 || len(e.targets) != 8 {
		t.Fatalf("memory-edge 4x4: %d requesters, %d targets, want 8/8", len(e.requesters), len(e.targets))
	}

	cfg = testCfg(false)
	e, _ = newEngine(cfg)
	if len(e.requesters) != 16 || len(e.targets) != 16 {
		t.Fatalf("uniform 4x4: %d requesters, %d targets, want 16/16", len(e.requesters), len(e.targets))
	}
}

func TestClassAssignment(t *testing.T) {
	cfg := testCfg(true)
	e, _ := newEngine(cfg)
	if e.Classes() != 2 {
		t.Fatalf("class-separated engine: Classes() = %d, want 2", e.Classes())
	}
	if e.classFor(ReadReq) != ClassReq || e.classFor(ReadRsp) != ClassRsp {
		t.Fatal("class separation must put requests on class 0 and responses on class 1")
	}

	cfg.Txn.SharedVCs = true
	e, _ = newEngine(cfg)
	if e.Classes() != 1 {
		t.Fatalf("shared-VC engine: Classes() = %d, want 1", e.Classes())
	}
	if e.classFor(ReadRsp) != ClassReq {
		t.Fatal("shared VCs must collapse responses onto class 0")
	}
}

func TestWindowGatesGeneration(t *testing.T) {
	cfg := testCfg(false)
	e, f := newEngine(cfg)
	for cycle := int64(0); cycle < 4; cycle++ {
		e.Tick(cycle)
	}
	// Rate 1 with window 2 and no retirements: exactly two requests per
	// node, then every requester stalls at its window.
	if got, want := e.Issued(), int64(2*16); got != want {
		t.Fatalf("issued %d requests, want %d (window-capped)", got, want)
	}
	if got := e.Outstanding(); got != e.Issued() {
		t.Fatalf("outstanding %d, want all %d in flight", got, e.Issued())
	}
	for _, p := range f.take() {
		if p.Src == p.Dst {
			t.Fatalf("request %d targets its own node %d", p.ID, p.Src)
		}
		if p.Kind != ReadReq || p.Class != ClassReq || p.Req != 0 || p.Size != 1 {
			t.Fatalf("pure-read mix produced %s class %d req %d size %d", KindName(p.Kind), p.Class, p.Req, p.Size)
		}
	}
	if e.Done() || e.Quiescent() {
		t.Fatal("uncapped workload must never report Done or Quiescent")
	}
}

func TestCappedWorkloadDrains(t *testing.T) {
	cfg := testCfg(true)
	cfg.Txn.ReadFrac, cfg.Txn.WriteFrac, cfg.Txn.AtomicFrac = 1, 1, 1
	cfg.Txn.PostedFrac = 0.5
	cfg.Txn.Requests = 5
	e, f := newEngine(cfg)
	h := &harness{e: e, f: f}
	for !e.Done() {
		if h.now > 10_000 {
			t.Fatalf("capped workload not drained after %d cycles: %d/%d retired",
				h.now, e.Retired(), e.Issued())
		}
		h.step()
	}
	want := int64(5 * len(e.requesters))
	if e.Issued() != want || e.Retired() != want {
		t.Fatalf("drained with %d issued / %d retired, want %d of each", e.Issued(), e.Retired(), want)
	}
	if e.Outstanding() != 0 {
		t.Fatalf("drained engine reports %d outstanding", e.Outstanding())
	}
	if got := e.Latency().Count(); got != want {
		t.Fatalf("recorded %d latency samples, want one per transaction (%d)", got, want)
	}
	if fastest := e.Latency().Quantile(0); fastest < 1 {
		t.Fatalf("fastest transaction took %g cycles; the perfect network still takes a round trip", fastest)
	}
	// Let the in-service posted writes finish, then the layer is fully
	// quiescent.
	for i := 0; i < cfg.Txn.ServiceCycles+1; i++ {
		h.step()
	}
	if !e.Quiescent() {
		t.Fatal("drained and serviced engine must be quiescent")
	}
}

func TestPostedWriteRetiresAtTarget(t *testing.T) {
	cfg := testCfg(true)
	cfg.Txn.ReadFrac, cfg.Txn.WriteFrac = 0, 1
	cfg.Txn.PostedFrac = 1
	cfg.Txn.Window = 1
	cfg.Txn.Requests = 1
	e, f := newEngine(cfg)

	e.Tick(0)
	sent := f.take()
	if len(sent) != len(e.requesters) {
		t.Fatalf("sent %d requests, want one per requester (%d)", len(sent), len(e.requesters))
	}
	p := sent[0]
	if p.Kind != PostedWrite || p.Size != cfg.PacketSize {
		t.Fatalf("posted-write mix produced %s size %d, want posted-write size %d",
			KindName(p.Kind), p.Size, cfg.PacketSize)
	}
	r := e.Responder(p.Dst)
	if !r.Peek(int(ClassReq)) {
		t.Fatal("idle responder refused admission")
	}
	r.Admit(int(ClassReq))
	e.OnEject(p, 1, true)
	if e.Retired() != 1 {
		t.Fatalf("posted write must retire at tail ejection, retired = %d", e.Retired())
	}
	if r.occupied() != 1 {
		t.Fatalf("posted write must hold its service slot, occupied = %d", r.occupied())
	}
	// Service completes with no response injected; the slot frees
	// silently.
	e.Tick(1 + int64(cfg.Txn.ServiceCycles))
	if got := f.take(); len(got) != 0 {
		t.Fatalf("posted-write completion injected %d packets, want none", len(got))
	}
	if r.occupied() != 0 {
		t.Fatalf("serviced posted write must free its slot, occupied = %d", r.occupied())
	}
}

func TestResponderAdmission(t *testing.T) {
	r := &Responder{depth: 2}
	if !r.Peek(int(ClassRsp)) || !r.Peek(int(ClassReq)) {
		t.Fatal("empty responder must admit both classes")
	}
	r.Admit(int(ClassReq))
	r.Admit(int(ClassReq))
	if r.Peek(int(ClassReq)) {
		t.Fatal("full responder must refuse request-class admission")
	}
	if !r.Peek(int(ClassRsp)) {
		t.Fatal("responses bypass the admission gate even at a full queue")
	}
	r.Admit(int(ClassRsp)) // no-op: responses take no slot
	if r.occupied() != 2 {
		t.Fatalf("response admission took a slot: occupied = %d, want 2", r.occupied())
	}
	mustPanic(t, "admission beyond queue depth", func() { r.Admit(int(ClassReq)) })
	mustPanic(t, "without an egress slot", func() { r.Injected() })
}

func TestOnEjectInvariants(t *testing.T) {
	cfg := testCfg(true)
	e, _ := newEngine(cfg)
	interior, edge := 1, 0 // node 1 is a requester, node 0 a memory edge

	t.Run("request-at-non-responder", func(t *testing.T) {
		mustPanic(t, "non-responder", func() {
			e.OnEject(&flit.Packet{Kind: ReadReq, Class: ClassReq, Src: edge, Dst: interior}, 0, false)
		})
	})
	t.Run("eject-without-admission", func(t *testing.T) {
		mustPanic(t, "no admission reserved", func() {
			e.OnEject(&flit.Packet{Kind: None, Class: ClassReq, Src: interior, Dst: edge}, 0, false)
		})
	})
	t.Run("retire-unknown-request", func(t *testing.T) {
		mustPanic(t, "unknown request", func() {
			e.OnEject(&flit.Packet{Kind: ReadRsp, Class: ClassRsp, Src: edge, Dst: interior, Req: 12345}, 0, false)
		})
	})
}

func TestPlainPacketReleasesReservation(t *testing.T) {
	cfg := testCfg(true)
	e, _ := newEngine(cfg)
	r := e.Responder(0)
	r.Admit(int(ClassReq))
	e.OnEject(&flit.Packet{Kind: None, Class: ClassReq, Src: 1, Dst: 0}, 0, false)
	if r.occupied() != 0 {
		t.Fatalf("plain packet must only release its reservation, occupied = %d", r.occupied())
	}
	if e.Retired() != 0 || len(r.queue) != 0 {
		t.Fatal("plain packet must neither retire nor enter service")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	cfg := testCfg(true)
	cfg.Txn.Rate = 0.5
	cfg.Txn.ReadFrac, cfg.Txn.WriteFrac, cfg.Txn.AtomicFrac = 1, 1, 1
	cfg.Txn.PostedFrac = 0.5
	e1, f1 := newEngine(cfg)
	h := &harness{e: e1, f: f1}
	for i := 0; i < 25; i++ {
		h.step()
	}
	if e1.Outstanding() == 0 {
		t.Fatal("snapshot cut must land mid-flight to exercise pending state")
	}
	// Pin a non-trivial egress count so the cut covers responses still
	// draining their source interface.
	e1.resps[0].egress++

	save := func(e *Engine) []byte {
		data, err := snap.Save(func(c *snap.Codec) {
			e.State(c, h.now)
		})
		if err != nil {
			t.Fatalf("save snapshot: %v", err)
		}
		return data
	}
	blob := save(e1)

	r, err := snap.Open(blob)
	if err != nil {
		t.Fatalf("open snapshot: %v", err)
	}
	e2, f2 := newEngine(cfg)
	e2.State(r, h.now)
	if err := r.Finish(); err != nil {
		t.Fatalf("load snapshot: %v", err)
	}
	if !bytes.Equal(blob, save(e2)) {
		t.Fatal("re-saved snapshot differs from the original blob")
	}
	if !bytes.Equal(blob, save(e1)) {
		t.Fatal("saving changed the engine it saved")
	}

	// The restored engine must continue bit-identically: same packets,
	// same counters, for the same perfect-network schedule.
	f2.nextID = f1.nextID
	h2 := &harness{e: e2, f: f2, now: h.now}
	h2.inflight = append(h2.inflight, h.inflight...)
	for i := 0; i < 50; i++ {
		h.step()
		h2.step()
	}
	if e1.Issued() != e2.Issued() || e1.Retired() != e2.Retired() {
		t.Fatalf("resumed run diverged: %d/%d issued, %d/%d retired",
			e1.Issued(), e2.Issued(), e1.Retired(), e2.Retired())
	}
	if h1, h2 := e1.Latency(), e2.Latency(); h1.Count() == 0 || !reflect.DeepEqual(h1, h2) {
		t.Fatalf("resumed run's latency histogram diverged: %+v vs original %+v", h2, h1)
	}
}

// loadStateCfg is the smallest memory-edge mesh: a 3x2 with one
// interior requester column (nodes 1 and 4) and four edge targets.
func loadStateCfg() *config.Config {
	cfg := config.Default()
	cfg.Width, cfg.Height = 3, 2
	cfg.Txn = config.TxnConfig{Enabled: true, Rate: 0.5, MemEdge: true}
	return &cfg
}

func TestLoadRejectsCorruptCounts(t *testing.T) {
	cfg := loadStateCfg()
	// load walks a fresh engine over a hand-written blob and returns
	// the codec's verdict.
	load := func(t *testing.T, write func(i64 func(int64), u8 func(uint8), c *snap.Codec)) error {
		t.Helper()
		data, err := snap.Save(func(c *snap.Codec) {
			write(func(v int64) { c.I64(&v) }, func(v uint8) { c.U8(&v) }, c)
		})
		if err != nil {
			t.Fatalf("seal: %v", err)
		}
		r, err := snap.Open(data)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		e, _ := newEngine(cfg)
		e.State(r, 0)
		return r.Finish()
	}
	header := func(i64 func(int64), c *snap.Codec) {
		c.Section("txn")
		i64(0) // issued
		i64(0) // retired
		c.I64sVar(new([]int64))
	}

	t.Run("pending-beyond-flight", func(t *testing.T) {
		err := load(t, func(i64 func(int64), u8 func(uint8), c *snap.Codec) {
			header(i64, c)
			for range 2 { // the requester nodes 1 and 4
				i64(0) // draws
				i64(0) // flight
				i64(0) // issued
				i64(1) // pending count > flight
				i64(7)
				i64(3)
			}
		})
		if err == nil || !strings.Contains(err.Error(), "pending entries") {
			t.Fatalf("load = %v, want pending-count validation error", err)
		}
	})

	t.Run("queue-beyond-depth", func(t *testing.T) {
		err := load(t, func(i64 func(int64), u8 func(uint8), c *snap.Codec) {
			header(i64, c)
			for range 2 { // valid, empty requesters 1 and 4
				for range 4 {
					i64(0)
				}
			}
			i64(0)                                        // target 0: reserved
			i64(0)                                        // egress
			i64(int64(cfg.Txn.EffectiveQueueDepth() + 1)) // queued services beyond depth
			for range cfg.Txn.EffectiveQueueDepth() + 1 {
				i64(0)
				u8(ReadRsp)
				i64(1)
				i64(1)
			}
		})
		if err == nil || !strings.Contains(err.Error(), "queued services") {
			t.Fatalf("load = %v, want queue-depth validation error", err)
		}
	})

	t.Run("implausible-draws", func(t *testing.T) {
		err := load(t, func(i64 func(int64), u8 func(uint8), c *snap.Codec) {
			header(i64, c)
			i64(1 << 40) // draws no stream reaches by cycle 0
		})
		if err == nil || !strings.Contains(err.Error(), "draws at cycle 0") {
			t.Fatalf("load = %v, want draw-count validation error", err)
		}
	})

	t.Run("histogram-beyond-retired", func(t *testing.T) {
		err := load(t, func(i64 func(int64), u8 func(uint8), c *snap.Codec) {
			c.Section("txn")
			i64(0)                 // issued
			i64(0)                 // retired
			c.I64sVar(&[]int64{1}) // one latency sample
			i64(0)                 // of 0 cycles
		})
		if err == nil || !strings.Contains(err.Error(), "more than 0 samples") {
			t.Fatalf("load = %v, want histogram-count validation error", err)
		}
	})

	t.Run("histogram-beyond-now", func(t *testing.T) {
		err := load(t, func(i64 func(int64), u8 func(uint8), c *snap.Codec) {
			c.Section("txn")
			i64(1)                 // issued
			i64(1)                 // retired
			c.I64sVar(&[]int64{1}) // one latency sample
			i64(5)                 // of 5 cycles, measured by cycle 0
		})
		if err == nil || !strings.Contains(err.Error(), "histogram range") {
			t.Fatalf("load = %v, want histogram-range validation error", err)
		}
	})

	t.Run("wrong-section", func(t *testing.T) {
		err := load(t, func(i64 func(int64), u8 func(uint8), c *snap.Codec) { c.Section("gen") })
		if err == nil {
			t.Fatal("load accepted a foreign section")
		}
	})
}
