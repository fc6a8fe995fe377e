package router

import (
	"bytes"
	"testing"

	"vichar/internal/config"
	"vichar/internal/flit"
	"vichar/internal/snap"
)

func headFlit(vc int) *flit.Flit {
	return &flit.Flit{Pkt: &flit.Packet{Size: 4}, Type: flit.Head, VC: vc}
}

func tailFlit(vc int) *flit.Flit {
	return &flit.Flit{Pkt: &flit.Packet{Size: 4}, Type: flit.Tail, VC: vc}
}

// alloc grants a VC of the kind as the allocators do: FreeVC, then
// ClaimVC.
func alloc(v CreditView, class int, escape bool) (int, bool) {
	vc := v.FreeVC(class, escape, 0)
	if vc < 0 {
		return -1, false
	}
	v.ClaimVC(class, vc)
	return vc, true
}

// onceGate admits one packet per class, then refuses the class.
type onceGate [2]bool

func (g *onceGate) Peek(class int) bool { return !g[class] }
func (g *onceGate) Admit(class int)     { g[class] = true }

// Every credit view answers the one allocation contract the two VC
// allocators and the NI rely on: FreeVC is a pure peek that names a VC
// of the requested (class, escape) kind's chunk, scanning round-robin
// from the chunk-relative offset for the fixed VC sets; ClaimVC grants
// exactly that VC, which the view then holds and does not offer again,
// and a second claim of it panics. Each view is drained kind by kind:
// two classes with uneven chunks (5 regular VCs split 3/2) and an
// escape set.
func TestCreditViewAllocationContract(t *testing.T) {
	gen, shared := newGenericView(nil, 7, 2, 2, 2), newSharedView(nil, 7, 10, 2, 2)
	vic := newViCharView(nil, 6, 8, 2, 2)
	for _, tc := range []struct {
		name  string
		view  CreditView
		span  func(class int, escape bool) (lo, hi int)
		fixed bool  // FreeVC scans round-robin from its offset
		kinds []int // grants each (class<<1|escape) kind gets before FreeVC refuses
	}{
		{"generic", gen, gen.span, true, []int{3, 1, 2, 1}},
		{"shared", shared, shared.span, true, []int{3, 1, 2, 1}},
		// 6 slots over 4 kinds: 2 shared plus one grant reserve per kind,
		// so class 0's regular kind takes the shared pair and its reserve,
		// and every later kind only its reserve.
		{"vichar", vic, vic.span, false, []int{3, 1, 1, 1}},
		{"sink", NewSinkViewWith(&onceGate{}), func(int, bool) (int, int) { return 0, 1 }, false, []int{1, 0, 1, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := tc.view
			state := func() []byte {
				data, err := snap.Save(v.State)
				if err != nil {
					t.Fatal(err)
				}
				return data
			}
			for k, want := range tc.kinds {
				class, escape := k>>1, k&1 == 1
				lo, hi := tc.span(class, escape)
				for n := 0; ; n++ {
					before := state()
					vc := v.FreeVC(class, escape, 0)
					for from := 0; from < 8; from++ {
						got := v.FreeVC(class, escape, from)
						if !tc.fixed && got != vc {
							t.Fatalf("kind %d: FreeVC from %d = %d, from 0 = %d; only fixed VC sets honor the offset", k, from, got, vc)
						}
						if tc.fixed && n == 0 && got != lo+from%(hi-lo) {
							t.Fatalf("kind %d: fresh FreeVC from %d = %d, want %d", k, from, got, lo+from%(hi-lo))
						}
					}
					if again := v.FreeVC(class, escape, 0); again != vc || !bytes.Equal(state(), before) {
						t.Fatalf("kind %d: FreeVC is not a pure peek (%d then %d)", k, vc, again)
					}
					if vc < 0 {
						if n != want {
							t.Fatalf("kind %d: %d grants before FreeVC refused, want %d", k, n, want)
						}
						break
					}
					if vc < lo || vc >= hi {
						t.Fatalf("kind %d: FreeVC offered vc %d outside its chunk [%d, %d)", k, vc, lo, hi)
					}
					v.ClaimVC(class, vc)
					if !v.Holds(vc) {
						t.Fatalf("kind %d: claimed vc %d not held", k, vc)
					}
					for from := 0; from < 8; from++ {
						if got := v.FreeVC(class, escape, from); got == vc {
							t.Fatalf("kind %d: claimed vc %d offered again from %d", k, vc, from)
						}
					}
					func() {
						defer func() {
							if recover() == nil {
								t.Fatalf("kind %d: second claim of vc %d did not panic", k, vc)
							}
						}()
						v.ClaimVC(class, vc)
					}()
				}
			}
		})
	}
}

func TestNewCreditViewDispatch(t *testing.T) {
	mk := func(arch config.BufferArch) CreditView {
		cfg := config.Default()
		cfg.Arch = arch
		if arch == config.Generic {
			cfg.VCs, cfg.VCDepth, cfg.BufferSlots = 4, 4, 16
		}
		return NewCreditView(&cfg)
	}
	if _, ok := mk(config.Generic).(*genericView); !ok {
		t.Error("generic view type wrong")
	}
	if _, ok := mk(config.ViChaR).(*vicharView); !ok {
		t.Error("vichar view type wrong")
	}
	if _, ok := mk(config.DAMQ).(*sharedView); !ok {
		t.Error("damq view type wrong")
	}
	if _, ok := mk(config.FCCB).(*sharedView); !ok {
		t.Error("fccb view type wrong")
	}
}

func TestGenericViewCreditAccounting(t *testing.T) {
	v := newGenericView(nil, 2, 3, 0, 1)
	if v.FreeSlots() != 6 {
		t.Fatalf("fresh free slots %d", v.FreeSlots())
	}
	vc, ok := alloc(v, 0, false)
	if !ok {
		t.Fatal("alloc failed on fresh view")
	}
	for i := 0; i < 3; i++ {
		if !v.CanSendFlit(vc) {
			t.Fatalf("no credit at flit %d", i)
		}
		f := headFlit(vc)
		if i == 2 {
			f = tailFlit(vc)
		}
		v.OnSend(f)
	}
	if v.CanSendFlit(vc) {
		t.Fatal("send allowed beyond depth")
	}
	v.OnCredit(flit.Credit{VC: vc})
	if !v.CanSendFlit(vc) {
		t.Fatal("credit not restored")
	}
}

func TestGenericViewAtomicAllocation(t *testing.T) {
	v := newGenericView(nil, 1, 4, 0, 1)
	vc, ok := alloc(v, 0, false)
	if !ok || vc != 0 {
		t.Fatalf("alloc got %d/%v", vc, ok)
	}
	v.OnSend(headFlit(0))
	v.OnSend(tailFlit(0)) // tail sent: VC closed but 2 flits downstream
	if _, ok := alloc(v, 0, false); ok {
		t.Fatal("atomic view re-allocated a non-drained VC")
	}
	v.OnCredit(flit.Credit{VC: 0})
	v.OnCredit(flit.Credit{VC: 0, ReleaseVC: true})
	if _, ok := alloc(v, 0, false); !ok {
		t.Fatal("atomic view refused a fully drained VC")
	}
}

func TestGenericViewEscapePartition(t *testing.T) {
	v := newGenericView(nil, 4, 2, 1, 1)
	// Normal allocations never touch the escape VC (id 3).
	for i := 0; i < 3; i++ {
		vc, ok := alloc(v, 0, false)
		if !ok || vc == 3 {
			t.Fatalf("normal alloc %d got %d/%v", i, vc, ok)
		}
	}
	if _, ok := alloc(v, 0, false); ok {
		t.Fatal("normal class exhausted but alloc succeeded")
	}
	if v.FreeVC(0, true, 0) < 0 {
		t.Fatal("escape VC should be free")
	}
	vc, ok := alloc(v, 0, true)
	if !ok || vc != 3 {
		t.Fatalf("escape alloc got %d/%v", vc, ok)
	}
}

func TestGenericViewGrantableClaim(t *testing.T) {
	v := newGenericView(nil, 4, 2, 0, 1)
	g := v.FreeVC(0, false, 2)
	if g != 2 {
		t.Fatalf("offset ignored: got %d", g)
	}
	v.ClaimVC(0, 2)
	if v.FreeVC(0, false, 2) == 2 {
		t.Fatal("claimed VC still grantable")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double claim did not panic")
		}
	}()
	v.ClaimVC(0, 2)
}

func TestGenericViewPanics(t *testing.T) {
	cases := []struct {
		name string
		f    func(v *genericView)
	}{
		{"send without credit", func(v *genericView) {
			v.OnSend(headFlit(0))
			v.OnSend(headFlit(0)) // depth 1: second send has no credit
		}},
		{"credit unknown vc", func(v *genericView) { v.OnCredit(flit.Credit{VC: 9}) }},
		{"credit overflow", func(v *genericView) { v.OnCredit(flit.Credit{VC: 1}) }},
		{"claim out of range", func(v *genericView) { v.ClaimVC(0, 7) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v := newGenericView(nil, 2, 1, 0, 1)
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", c.name)
				}
			}()
			c.f(v)
		})
	}
}

func TestSharedViewPoolAccounting(t *testing.T) {
	v := newSharedView(nil, 4, 6, 0, 1)
	// 6 slots, 4 permanent per-queue reservations: 2 shared.
	if v.FreeSlots() != 2 {
		t.Fatalf("fresh shared slots %d, want 2", v.FreeSlots())
	}
	vc, _ := alloc(v, 0, false)
	// The queue can absorb the shared pool plus its own reservation.
	for i := 0; i < 3; i++ {
		if !v.CanSendFlit(vc) {
			t.Fatalf("no credit at flit %d", i)
		}
		v.OnSend(headFlit(vc))
	}
	if v.CanSendFlit(vc) {
		t.Fatal("send beyond shared pool + reservation")
	}
	// Other queues still have their reservations.
	other := (vc + 1) % 4
	if !v.CanSendFlit(other) {
		t.Fatal("another queue lost its reserved slot")
	}
	// A departure refills the reservation first, then the pool.
	v.OnCredit(flit.Credit{VC: vc})
	if v.FreeSlots() != 0 || !v.resFree[vc] {
		t.Fatal("reservation not refilled first")
	}
	v.OnCredit(flit.Credit{VC: vc})
	if v.FreeSlots() != 1 {
		t.Fatal("shared credit not restored")
	}
}

// A queue's permanent reservation guarantees progress even when the
// shared pool is exhausted by other queues — the DAMQ anti-deadlock
// provision.
func TestSharedViewReservationGuarantee(t *testing.T) {
	v := newSharedView(nil, 2, 4, 0, 1) // 2 shared + 2 reserved
	v.OnSend(headFlit(0))
	v.OnSend(headFlit(0)) // queue 0 eats the shared pool
	if v.FreeSlots() != 0 {
		t.Fatal("shared pool should be empty")
	}
	if !v.CanSendFlit(1) {
		t.Fatal("queue 1 lost its guaranteed slot")
	}
	v.OnSend(headFlit(1))
	if v.CanSendFlit(1) {
		t.Fatal("queue 1 sent past its reservation")
	}
	if !v.CanSendFlit(0) {
		t.Fatal("queue 0's own reservation missing")
	}
}

func TestSharedViewVCLifecycle(t *testing.T) {
	v := newSharedView(nil, 2, 8, 0, 1)
	a, _ := alloc(v, 0, false)
	b, ok := alloc(v, 0, false)
	if !ok || a == b {
		t.Fatalf("allocs %d %d", a, b)
	}
	if v.OutstandingVCs() != 2 {
		t.Fatal("outstanding count wrong")
	}
	if _, ok := alloc(v, 0, false); ok {
		t.Fatal("over-allocated fixed VCs")
	}
	v.OnSend(tailFlit(a)) // tail closes the VC for new packets
	if _, ok := alloc(v, 0, false); !ok {
		t.Fatal("closed VC not re-allocatable (non-atomic queueing)")
	}
}

func TestViCharViewTokenFlow(t *testing.T) {
	v := newViCharView(nil, 16, 16, 0, 1)
	if v.FreeSlots() != 16 || v.OutstandingVCs() != 0 {
		t.Fatal("fresh vichar view wrong")
	}
	// Every token grant reserves one slot, so all 16 tokens fit — the
	// paper's Figure 5 extreme of vk single-slot VCs.
	seen := map[int]bool{}
	for i := 0; i < 16; i++ {
		vc, ok := alloc(v, 0, false)
		if !ok || seen[vc] {
			t.Fatalf("token %d: %d/%v", i, vc, ok)
		}
		seen[vc] = true
	}
	if _, ok := alloc(v, 0, false); ok {
		t.Fatal("17th token granted")
	}
	if v.OutstandingVCs() != 16 {
		t.Fatal("outstanding wrong")
	}
	if v.FreeSlots() != 0 {
		t.Fatalf("shared pool %d with every slot reserved", v.FreeSlots())
	}
	// Each VC can still land exactly its one reserved flit.
	for vc := 0; vc < 16; vc++ {
		if !v.CanSendFlit(vc) {
			t.Fatalf("vc %d lost its reserved slot", vc)
		}
		v.OnSend(headFlit(vc))
	}
	if v.CanSendFlit(0) {
		t.Fatal("send past the reservation")
	}
	// A tail departure returns the flit's slot and the token.
	v.OnCredit(flit.Credit{VC: 5, ReleaseVC: true})
	if v.FreeSlots() != 1 || v.FreeVC(0, false, 0) < 0 {
		t.Fatalf("release credit not applied: free=%d", v.FreeSlots())
	}
	if vc, ok := alloc(v, 0, false); !ok || vc != 5 {
		t.Fatalf("released token not re-dispensed: %d/%v", vc, ok)
	}
}

// A packet deeper than one flit flows through a VC by alternating its
// reservation with departures even when the shared pool is empty.
func TestViCharViewReservationCycling(t *testing.T) {
	v := newViCharView(nil, 2, 2, 0, 1)
	a, ok := alloc(v, 0, false)
	b, ok2 := alloc(v, 0, false)
	if !ok || !ok2 {
		t.Fatal("setup allocs failed")
	}
	v.OnSend(headFlit(a)) // consumes a's reservation (pool empty)
	v.OnSend(headFlit(b))
	if v.CanSendFlit(a) || v.CanSendFlit(b) {
		t.Fatal("over-capacity send allowed")
	}
	// a's flit departs downstream: reservation refills, next flit of
	// a can be sent. Repeat indefinitely: the packet streams through
	// a single slot.
	for i := 0; i < 5; i++ {
		v.OnCredit(flit.Credit{VC: a})
		if !v.CanSendFlit(a) {
			t.Fatalf("round %d: reservation not refilled", i)
		}
		v.OnSend(headFlit(a))
	}
	v.OnCredit(flit.Credit{VC: a, ReleaseVC: true})
	if v.OutstandingVCs() != 1 || v.FreeSlots() != 1 {
		t.Fatalf("release accounting wrong: out=%d free=%d", v.OutstandingVCs(), v.FreeSlots())
	}
}

func TestViCharViewEscapeTokens(t *testing.T) {
	v := newViCharView(nil, 8, 8, 2, 1)
	if v.FreeVC(0, true, 0) < 0 {
		t.Fatal("escape tokens missing")
	}
	// The escape set is the highest IDs, dispensed lowest first.
	if e, ok := alloc(v, 0, true); !ok || e != 6 {
		t.Fatalf("escape token %d/%v, want 6", e, ok)
	}
	// Normal tokens unaffected, and never from the escape span.
	for i := 0; i < 6; i++ {
		if vc, ok := alloc(v, 0, false); !ok || vc != i {
			t.Fatalf("normal token %d: %d/%v", i, vc, ok)
		}
	}
	if _, ok := alloc(v, 0, false); ok {
		t.Fatal("normal pool should be empty")
	}
	if !v.Holds(6) || v.Holds(7) || v.OutstandingVCs() != 7 {
		t.Fatalf("token record: holds(6)=%v holds(7)=%v out=%d", v.Holds(6), v.Holds(7), v.OutstandingVCs())
	}
	// Without an escape set no escape token exists.
	if n := newViCharView(nil, 4, 4, 0, 1); n.FreeVC(0, true, 0) >= 0 {
		t.Fatal("phantom escape tokens")
	} else if _, ok := alloc(n, 0, true); ok {
		t.Fatal("escape grant without an escape set")
	}
}

func TestViCharViewPanics(t *testing.T) {
	v := newViCharView(nil, 2, 2, 0, 1)
	v.OnSend(headFlit(0))
	v.OnSend(headFlit(1))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("send without slot credit did not panic")
			}
		}()
		v.OnSend(headFlit(0))
	}()
	v.OnCredit(flit.Credit{VC: 0})
	v.OnCredit(flit.Credit{VC: 1})
	defer func() {
		if recover() == nil {
			t.Error("credit overflow did not panic")
		}
	}()
	v.OnCredit(flit.Credit{VC: 0})
}

func TestSinkViewAlwaysAvailable(t *testing.T) {
	v := NewSinkView()
	if !v.CanSendFlit(3) || v.FreeVC(0, false, 0) != 0 || v.FreeVC(0, true, 0) != 0 {
		t.Fatal("sink refused")
	}
	vc, ok := alloc(v, 0, false)
	if !ok || vc != 0 {
		t.Fatalf("sink alloc %d/%v", vc, ok)
	}
	v.OnSend(headFlit(0))
	if v.OutstandingVCs() != 1 {
		t.Fatal("sink outstanding tracking wrong")
	}
	v.OnSend(tailFlit(0))
	if v.OutstandingVCs() != 0 {
		t.Fatal("sink outstanding not released")
	}
	if v.FreeSlots() <= 0 {
		t.Fatal("sink slots exhausted")
	}
}

func TestSharedViewGrantableClaim(t *testing.T) {
	v := newSharedView(nil, 4, 8, 1, 1) // queue 3 is the escape class
	// Normal class scans 0..2 from the offset.
	if got := v.FreeVC(0, false, 2); got != 2 {
		t.Fatalf("offset ignored: %d", got)
	}
	v.ClaimVC(0, 2)
	if got := v.FreeVC(0, false, 2); got == 2 {
		t.Fatal("claimed queue still grantable")
	}
	// Escape class only offers queue 3.
	if got := v.FreeVC(0, true, 0); got != 3 {
		t.Fatalf("escape grantable %d, want 3", got)
	}
	v.ClaimVC(0, 0)
	v.ClaimVC(0, 1)
	if got := v.FreeVC(0, false, 0); got != -1 {
		t.Fatalf("exhausted class still grants %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double claim did not panic")
		}
	}()
	v.ClaimVC(0, 1)
}

func TestSharedViewOutstanding(t *testing.T) {
	v := newSharedView(nil, 3, 6, 0, 1)
	if v.OutstandingVCs() != 0 {
		t.Fatal("fresh outstanding nonzero")
	}
	v.ClaimVC(0, 0)
	v.ClaimVC(0, 2)
	if v.OutstandingVCs() != 2 {
		t.Fatalf("outstanding %d, want 2", v.OutstandingVCs())
	}
	v.OnSend(tailFlit(0)) // tail closes the packet
	if v.OutstandingVCs() != 1 {
		t.Fatalf("outstanding %d after tail, want 1", v.OutstandingVCs())
	}
}

func TestSharedViewStrayCreditPanics(t *testing.T) {
	v := newSharedView(nil, 2, 4, 0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("stray credit did not panic")
		}
	}()
	v.OnCredit(flit.Credit{VC: 0})
}

func TestSharedViewNeedsSlotPerQueue(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("undersized shared view did not panic")
		}
	}()
	newSharedView(nil, 8, 4, 0, 1)
}

func TestViCharViewStrayCreditPanics(t *testing.T) {
	v := newViCharView(nil, 4, 4, 0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("stray UBS credit did not panic")
		}
	}()
	v.OnCredit(flit.Credit{VC: 1})
}

func TestViCharViewOutOfRangeSend(t *testing.T) {
	v := newViCharView(nil, 4, 4, 0, 1)
	if v.CanSendFlit(-1) || v.CanSendFlit(9) {
		t.Fatal("out-of-range vc sendable")
	}
}
