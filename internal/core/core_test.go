package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"vichar/internal/flit"
)

// --- Tracker (VC Availability Tracker) ---

// Granting over the whole range hands out every entry once, then none.
func TestTrackerAcquireAll(t *testing.T) {
	tr := NewTracker(5)
	seen := map[int]bool{}
	for i := 0; i < 5; i++ {
		s := grant(tr, 0, 5)
		if s < 0 || s >= 5 || seen[s] {
			t.Fatalf("acquire %d returned %d (seen=%v)", i, s, seen)
		}
		seen[s] = true
	}
	if tr.Free() != 0 {
		t.Fatalf("free %d after exhausting", tr.Free())
	}
	if s := grant(tr, 0, 5); s != -1 {
		t.Fatalf("all-zero tracker granted %d", s)
	}
}

func TestTrackerReleaseReacquire(t *testing.T) {
	tr := NewTracker(3)
	a := grant(tr, 0, 3)
	grant(tr, 0, 3)
	grant(tr, 0, 3)
	tr.Release(a)
	if tr.Free() != 1 || !tr.Available(a) {
		t.Fatal("release not reflected")
	}
	if got := grant(tr, 0, 3); got != a {
		t.Fatalf("reacquire got %d, want the released %d", got, a)
	}
}

func TestTrackerDoubleReleasePanics(t *testing.T) {
	tr := NewTracker(2)
	s := grant(tr, 0, 2)
	tr.Release(s)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	tr.Release(s)
}

func TestTrackerOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range release did not panic")
		}
	}()
	NewTracker(2).Release(5)
}

// Property: free count always equals the number of available bits and
// grants never hand out an entry twice.
func TestTrackerConservation(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := NewTracker(8)
		held := map[int]bool{}
		for step := 0; step < 300; step++ {
			if rng.Intn(2) == 0 {
				s := grant(tr, 0, 8)
				if len(held) == 8 {
					if s != -1 {
						return false
					}
				} else {
					if s < 0 || held[s] {
						return false
					}
					held[s] = true
				}
			} else if len(held) > 0 {
				for s := range held {
					delete(held, s)
					tr.Release(s)
					break
				}
			}
			if tr.Free() != 8-len(held) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// --- Token Dispenser: one VC Availability Tracker over every VC ID ---
//
// The router's ViChaR credit view dispenses a token as FirstInRange
// over the requesting kind's span, then Take, and returns it with
// Release; these tests pin that policy on the tracker alone (the view's
// own tests cover the slot reservations that ride on each token).

// grant dispenses the span's next token as the view does.
func grant(tr *Tracker, lo, hi int) int {
	vc := tr.FirstInRange(lo, hi)
	if vc >= 0 {
		tr.Take(vc)
	}
	return vc
}

func TestDispenserGrantReturn(t *testing.T) {
	tr := NewTracker(4)
	for want := 0; want < 4; want++ {
		if peek := tr.FirstInRange(0, 4); peek != want || tr.Free() != 4-want {
			t.Fatalf("peek %d (free %d), want the lowest free %d untaken", peek, tr.Free(), want)
		}
		if vc := grant(tr, 0, 4); vc != want {
			t.Fatalf("grant %d: vc=%d, want the lowest free %d", want, vc, want)
		}
	}
	if in := tr.Size() - tr.Free(); in != 4 {
		t.Fatalf("in use %d, want 4", in)
	}
	if vc := grant(tr, 0, 4); vc != -1 {
		t.Fatalf("grant %d with all tokens out", vc)
	}
	tr.Release(2)
	if vc := grant(tr, 0, 4); vc != 2 {
		t.Fatalf("after return got %d, want 2", vc)
	}
}

func TestDispenserEscapeSet(t *testing.T) {
	// Eight VC IDs; the highest two are the escape span.
	tr := NewTracker(8)
	regular, escape := [2]int{0, 6}, [2]int{6, 8}
	if r, e := tr.FirstInRange(regular[0], regular[1]), tr.FirstInRange(escape[0], escape[1]); r != 0 || e != 6 {
		t.Fatalf("first free regular %d, escape %d; want 0, 6", r, e)
	}
	// Escape grants come from the escape span only, lowest first.
	if e1, e2 := grant(tr, escape[0], escape[1]), grant(tr, escape[0], escape[1]); e1 != 6 || e2 != 7 {
		t.Fatalf("escape grants %d,%d, want 6,7", e1, e2)
	}
	if r, e := tr.FirstInRange(regular[0], regular[1]), tr.FirstInRange(escape[0], escape[1]); r != 0 || e != -1 {
		t.Fatalf("after escape grants: first free regular %d, escape %d; want 0, -1", r, e)
	}
	// Regular grants are unaffected and never reach the escape IDs.
	for i := 0; i < 6; i++ {
		if vc := grant(tr, regular[0], regular[1]); vc != i {
			t.Fatalf("regular grant %d: %d", i, vc)
		}
	}
	tr.Release(6)
	if r, e := tr.FirstInRange(regular[0], regular[1]), tr.FirstInRange(escape[0], escape[1]); r != -1 || e != 6 {
		t.Fatal("escape return not reflected in the escape span alone")
	}
}

func TestDispenserNoEscapeConfigured(t *testing.T) {
	// Without an escape set the escape span is empty: [total, total).
	tr := NewTracker(4)
	if vc := tr.FirstInRange(4, 4); vc != -1 || tr.Free() != 4 {
		t.Fatalf("escape token %d without an escape set", vc)
	}
}

func TestDispenserFCFSOrder(t *testing.T) {
	// Tokens are dispensed from the top-most available entry of the
	// span, so the grant order after interleaved returns is
	// deterministic — within a class chunk as over the whole range.
	tr := NewTracker(6)
	a, b := grant(tr, 3, 6), grant(tr, 3, 6)
	tr.Release(a)
	if c := grant(tr, 3, 6); c != a || a != 3 || b != 4 {
		t.Fatalf("grants %d,%d then %d; want 3,4 then the freed 3", a, b, c)
	}
	if vc := grant(tr, 0, 3); vc != 0 {
		t.Fatalf("the other chunk granted %d, want 0", vc)
	}
}

func TestDispenserBadReturnPanics(t *testing.T) {
	for _, c := range []struct {
		name string
		f    func(tr *Tracker)
	}{
		{"return out of range", func(tr *Tracker) { tr.Release(4) }},
		{"take out of range", func(tr *Tracker) { tr.Take(4) }},
		{"double take", func(tr *Tracker) { tr.Take(1); tr.Take(1) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", c.name)
				}
			}()
			c.f(NewTracker(4))
		}()
	}
}

// The escape set's shape (at least one regular VC) is config.Validate's
// rule; the tracker itself refuses an empty ID range.
func TestDispenserConstructorPanics(t *testing.T) {
	for i, c := range []func(){
		func() { NewTracker(0) },
		func() { NewTracker(-1) },
		func() { new(Tracker).Init(0, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			c()
		}()
	}
}

// --- The benchmark's readiness-word view ---

// ReadyWords mirrors the stamps: bit v is set iff ReadyAt()[v] <= now,
// and the stamps iff Front answers.
func TestReadyWordsMatchStamps(t *testing.T) {
	b := NewUBSIn(nil, 70, 70) // two words
	for _, vc := range []int{0, 63, 64, 69} {
		f := &flit.Flit{Pkt: &flit.Packet{ID: uint64(vc), Size: 1}, Type: flit.HeadTail, VC: vc}
		if err := b.Write(f, int64(vc)); err != nil {
			t.Fatal(err)
		}
	}
	for now := int64(0); now < 72; now++ {
		w := b.ReadyWords(now)
		for v := 0; v < b.MaxVCs(); v++ {
			front := b.Front(v, now) != nil
			if (w[v>>6]>>(uint(v)&63)&1 == 1) != front || (b.ReadyAt()[v] <= now) != front {
				t.Fatalf("cycle %d vc %d: words and stamps disagree with Front (%v)", now, v, front)
			}
		}
	}
}

// --- ViChaR's buffer: the UBS slot pool and its VC Control Table ---

// ubsFlits returns the flits of a packet of size flits on vc.
func ubsFlits(id uint64, vc, size int) []*flit.Flit {
	pkt := &flit.Packet{ID: id, Size: size}
	fs := make([]*flit.Flit, size)
	for i := range fs {
		typ := flit.Body
		switch {
		case size == 1:
			typ = flit.HeadTail
		case i == 0:
			typ = flit.Head
		case i == size-1:
			typ = flit.Tail
		}
		fs[i] = &flit.Flit{Pkt: pkt, Seq: i, Type: typ, VC: vc}
	}
	return fs
}

// A VC's row of the control table lists its slots in arrival order,
// however scattered: the pool hands out the last freed slot first, so
// draining VCs 1, 2, 0, 3 lines the free slots up as 3, 0, 2, 1, and a
// packet written into them still leaves in FIFO order.
func TestTableAppendPopOrder(t *testing.T) {
	b := NewUBSIn(nil, 4, 4)
	for vc := 0; vc < 4; vc++ {
		if err := b.Write(ubsFlits(uint64(vc), vc, 1)[0], 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, vc := range []int{1, 2, 0, 3} {
		if _, err := b.Pop(vc, 10); err != nil {
			t.Fatalf("drain vc %d: %v", vc, err)
		}
	}
	for _, f := range ubsFlits(9, 1, 4) {
		if err := b.Write(f, 20); err != nil {
			t.Fatal(err)
		}
	}
	if b.Len(1) != 4 || b.Len(0) != 0 || b.FreeSlotsFor(0) != 0 {
		t.Fatalf("len=%d, row 0 len=%d, free %d", b.Len(1), b.Len(0), b.FreeSlotsFor(0))
	}
	if err := b.Audit(true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		f, err := b.Pop(1, 100)
		if err != nil || f.Seq != i {
			t.Fatalf("pop %d got %v (%v)", i, f, err)
		}
	}
	if b.Len(1) != 0 || b.Front(1, 100) != nil || b.Occupied() != 0 {
		t.Fatal("row not NULLed after draining")
	}
	if err := b.Audit(true); err != nil {
		t.Fatal(err)
	}
}

// One VC's flits land in non-consecutive slots when another VC
// interleaves — the UBS's key flexibility (paper §3.2): the pool hands
// out slots in order, so VC 0 holds slots 0 and 2 around VC 1's slot 1.
// Freeing the slot between them leaves VC 0's chain and FIFO order
// intact.
func TestUBSNonConsecutiveSlots(t *testing.T) {
	b := NewUBSIn(nil, 8, 8)
	p0, p1 := ubsFlits(0, 0, 2), ubsFlits(1, 1, 2)
	for _, f := range []*flit.Flit{p0[0], p1[0], p0[1]} {
		if err := b.Write(f, 1); err != nil {
			t.Fatal(err)
		}
	}
	if b.Len(0) != 2 || b.Len(1) != 1 || b.Occupied() != 3 {
		t.Fatalf("vc 0 len %d, vc 1 len %d, occupied %d", b.Len(0), b.Len(1), b.Occupied())
	}
	if f, err := b.Pop(1, 100); err != nil || f.Pkt.ID != 1 {
		t.Fatalf("vc 1 pop got %v (%v)", f, err)
	}
	if err := b.Audit(true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if f, err := b.Pop(0, 100); err != nil || f.Pkt.ID != 0 || f.Seq != i {
			t.Fatalf("vc 0 pop %d got %v (%v)", i, f, err)
		}
	}
}
