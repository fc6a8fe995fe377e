package core

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"vichar/internal/buffers"
	"vichar/internal/flit"
	"vichar/internal/snap"
)

// --- Tracker (Slot / VC Availability Tracker) ---

func TestTrackerAcquireAll(t *testing.T) {
	tr := NewTracker(5)
	seen := map[int]bool{}
	for i := 0; i < 5; i++ {
		s := tr.Acquire()
		if s < 0 || s >= 5 || seen[s] {
			t.Fatalf("acquire %d returned %d (seen=%v)", i, s, seen)
		}
		seen[s] = true
	}
	if tr.Free() != 0 {
		t.Fatalf("free %d after exhausting", tr.Free())
	}
	if s := tr.Acquire(); s != -1 {
		t.Fatalf("all-zero tracker granted %d", s)
	}
}

func TestTrackerReleaseReacquire(t *testing.T) {
	tr := NewTracker(3)
	a := tr.Acquire()
	tr.Acquire()
	tr.Acquire()
	tr.Release(a)
	if tr.Free() != 1 || !tr.Available(a) {
		t.Fatal("release not reflected")
	}
	if got := tr.Acquire(); got != a {
		t.Fatalf("reacquire got %d, want the released %d", got, a)
	}
}

func TestTrackerDoubleReleasePanics(t *testing.T) {
	tr := NewTracker(2)
	s := tr.Acquire()
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
// acquires never double-allocate.
func TestTrackerConservation(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := NewTracker(8)
		held := map[int]bool{}
		for step := 0; step < 300; step++ {
			if rng.Intn(2) == 0 {
				s := tr.Acquire()
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

// --- VC Control Table ---

func TestTableAppendPopOrder(t *testing.T) {
	tab := NewTable(4)
	slots := []int{3, 0, 2, 1} // deliberately non-consecutive
	for _, s := range slots {
		tab.Append(1, s)
	}
	if tab.Len(1) != 4 || tab.Len(0) != 0 {
		t.Fatalf("len=%d, row 0 len=%d", tab.Len(1), tab.Len(0))
	}
	for _, want := range slots {
		if got := tab.Head(1); got != want {
			t.Fatalf("head %d, want %d", got, want)
		}
		if got := tab.PopHead(1); got != want {
			t.Fatalf("pop %d, want %d", got, want)
		}
	}
	if tab.Len(1) != 0 || tab.Head(1) != -1 {
		t.Fatal("row not NULLed after draining")
	}
}

func TestTablePopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("pop of empty row did not panic")
		}
	}()
	NewTable(2).PopHead(0)
}

func TestTableSlotsCopy(t *testing.T) {
	tab := NewTable(2)
	tab.Append(0, 1)
	s := tab.Slots(0)
	s[0] = 99
	if tab.Head(0) != 1 {
		t.Fatal("Slots returned aliased storage")
	}
	if tab.Slots(7) != nil {
		t.Fatal("out-of-range row returned slots")
	}
}

func TestTableAppendOutOfRangeSlotPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("append of a slot outside the table did not panic")
		}
	}()
	NewTable(4).Append(0, 4)
}

// Property: the slot-linked table behaves as a slice of slices. A
// random interleaving of appends (of slots no row holds, the Slot
// Availability Tracker's contract) and pops over rows x slots shapes
// — more slots than rows, the capped-dispenser shape, included — keeps
// every row's FIFO order, length, head and the Slots copy equal to the
// model's, through a mid-sequence checkpoint round trip into a fresh
// table.
func TestTableMatchesSliceModel(t *testing.T) {
	shapes := []struct{ vcs, slots int }{{1, 1}, {4, 4}, {3, 16}, {16, 16}, {5, 64}}
	for _, sh := range shapes {
		sh := sh
		prop := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			tab := &Table{}
			tab.init(sh.vcs, sh.slots, nil)
			model := make([][]int, sh.vcs)
			var free []int
			for s := 0; s < sh.slots; s++ {
				free = append(free, s)
			}
			for step := 0; step < 800; step++ {
				if step == 400 {
					data, err := snap.Save(func(c *snap.Codec) {
						tab.state(c, nil)
					})
					if err != nil {
						return false
					}
					r, err := snap.Open(data)
					if err != nil {
						return false
					}
					fresh := &Table{}
					fresh.init(sh.vcs, sh.slots, nil)
					fresh.state(r, nil)
					if err := r.Finish(); err != nil {
						return false
					}
					tab = fresh
				}
				vc := rng.Intn(sh.vcs)
				if rng.Intn(2) == 0 && len(free) > 0 {
					k := rng.Intn(len(free))
					slot := free[k]
					free = append(free[:k], free[k+1:]...)
					tab.Append(vc, slot)
					model[vc] = append(model[vc], slot)
				} else if len(model[vc]) > 0 {
					slot := tab.PopHead(vc)
					if slot != model[vc][0] {
						return false
					}
					model[vc] = model[vc][1:]
					free = append(free, slot)
				}
				for v, row := range model {
					if tab.Len(v) != len(row) {
						return false
					}
					got := tab.Slots(v)
					for i := range row {
						if got[i] != row[i] {
							return false
						}
					}
					if len(row) > 0 {
						if tab.Head(v) != row[0] {
							return false
						}
					} else if tab.Head(v) != -1 {
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
			t.Errorf("%d rows x %d slots: %v", sh.vcs, sh.slots, err)
		}
	}
}

// A snapshot whose table rows name one slot twice, or more slots than
// the pool has, is refused instead of linking a corrupt list.
func TestTableLoadRejectsCorruptRows(t *testing.T) {
	i16 := func(c *snap.Codec, v int16) { c.I16(&v) }
	for name, write := range map[string]func(c *snap.Codec){
		"duplicate slot": func(c *snap.Codec) {
			c.I16s([]int16{2, 0})
			i16(c, 1)
			i16(c, 1)
		},
		"slot out of range": func(c *snap.Codec) {
			c.I16s([]int16{1, 0})
			i16(c, 2)
		},
		"row longer than the pool": func(c *snap.Codec) {
			c.I16s([]int16{3, 0})
		},
	} {
		data, err := snap.Save(write)
		if err != nil {
			t.Fatal(err)
		}
		r, err := snap.Open(data)
		if err != nil {
			t.Fatal(err)
		}
		if NewTable(2).state(r, nil); r.Err() == nil {
			t.Errorf("%s: accepted", name)
		}
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

// --- UBS (Unified Buffer Structure) ---

func mkFlit(id uint64, vc int, typ flit.Type) *flit.Flit {
	return &flit.Flit{Pkt: &flit.Packet{ID: id, Size: 4}, Type: typ, VC: vc}
}

func TestUBSShape(t *testing.T) {
	b := NewUBS(16)
	if b.Slots() != 16 || b.MaxVCs() != 16 {
		t.Fatalf("shape %d/%d", b.Slots(), b.MaxVCs())
	}
	c := NewUBSWithVCs(16, 4)
	if c.Slots() != 16 || c.MaxVCs() != 4 {
		t.Fatalf("capped shape %d/%d", c.Slots(), c.MaxVCs())
	}
}

func TestUBSSingleVCFIFO(t *testing.T) {
	b := NewUBS(8)
	for i := uint64(0); i < 5; i++ {
		if err := b.Write(mkFlit(i, 3, flit.Body), 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 5; i++ {
		f, err := b.Pop(3, 100)
		if err != nil || f.Pkt.ID != i {
			t.Fatalf("pop %d: %v (%v)", i, f, err)
		}
	}
}

// The UBS must let one VC's flits land in non-consecutive slots when
// other VCs interleave — the paper's key flexibility.
func TestUBSNonConsecutiveSlots(t *testing.T) {
	b := NewUBS(8)
	if err := b.Write(mkFlit(0, 0, flit.Head), 1); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(mkFlit(1, 1, flit.Head), 1); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(mkFlit(2, 0, flit.Body), 1); err != nil {
		t.Fatal(err)
	}
	s := b.SlotsOf(0)
	if len(s) != 2 || s[1]-s[0] == 1 {
		// slot 1 went to VC 1, so VC 0 holds slots {0, 2}.
		t.Fatalf("vc 0 slots %v, expected non-consecutive", s)
	}
	// FIFO order survives the scattering.
	f, err := b.Pop(0, 100)
	if err != nil || f.Pkt.ID != 0 {
		t.Fatalf("pop got %v (%v)", f, err)
	}
}

// A single VC may absorb the entire pool (few deep VCs under light
// traffic) and the pool exhausts exactly at capacity.
func TestUBSFullPoolOneVC(t *testing.T) {
	b := NewUBS(8)
	for i := uint64(0); i < 8; i++ {
		if err := b.Write(mkFlit(i, 0, flit.Body), 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Write(mkFlit(99, 1, flit.Body), 1); !errors.Is(err, buffers.ErrFull) {
		t.Fatalf("overfull write returned %v", err)
	}
	if b.FreeSlotsFor(1) != 0 || b.Occupied() != 8 || inUse(b) != 1 {
		t.Fatal("pool accounting wrong at capacity")
	}
}

// All slots as single-flit VCs (many shallow VCs under heavy
// traffic).
func TestUBSAllSingleFlitVCs(t *testing.T) {
	b := NewUBS(8)
	for vc := 0; vc < 8; vc++ {
		if err := b.Write(mkFlit(uint64(vc), vc, flit.Head), 1); err != nil {
			t.Fatal(err)
		}
	}
	if inUse(b) != 8 {
		t.Fatalf("in-use VCs %d, want 8", inUse(b))
	}
	for vc := 0; vc < 8; vc++ {
		f, err := b.Pop(vc, 10)
		if err != nil || f.Pkt.ID != uint64(vc) {
			t.Fatalf("vc %d pop %v (%v)", vc, f, err)
		}
	}
}

func TestUBSBadVC(t *testing.T) {
	b := NewUBSWithVCs(8, 4)
	if err := b.Write(mkFlit(0, 5, flit.Head), 1); !errors.Is(err, buffers.ErrBadVC) {
		t.Fatalf("write to capped-out vc returned %v", err)
	}
	if _, err := b.Pop(0, 10); !errors.Is(err, buffers.ErrEmpty) {
		t.Fatalf("pop of empty vc returned %v", err)
	}
}

func TestUBSSameCycleInvisibility(t *testing.T) {
	b := NewUBS(4)
	if err := b.Write(mkFlit(0, 0, flit.Head), 7); err != nil {
		t.Fatal(err)
	}
	if b.Front(0, 7) != nil {
		t.Fatal("flit visible in its write cycle")
	}
	if b.Front(0, 8) == nil {
		t.Fatal("flit invisible one cycle later")
	}
}

func TestUBSConstructorPanics(t *testing.T) {
	for i, c := range []func(){
		func() { NewUBS(0) },
		func() { NewUBSWithVCs(4, 0) },
		func() { NewUBSWithVCs(4, 5) },
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

// inUse counts the VCs holding at least one flit.
func inUse(b *UBS) int {
	n := 0
	for v := 0; v < b.MaxVCs(); v++ {
		if b.Len(v) > 0 {
			n++
		}
	}
	return n
}

// ubsReadyMatchesFront checks the readiness contract: ReadyAt()[v] <=
// now, and bit v of the stamp-derived ReadyWords(now), each hold iff
// Front(v, now) returns a flit.
func ubsReadyMatchesFront(b *UBS, now int64) bool {
	rdy := b.ReadyWords(now)
	for v := 0; v < b.MaxVCs(); v++ {
		front := b.Front(v, now) != nil
		if (b.ReadyAt()[v] <= now) != front || (rdy[v>>6]>>(uint(v)&63)&1 == 1) != front {
			return false
		}
	}
	return true
}

// Property: slot conservation — free + used == capacity after any
// random operation sequence, every VC keeps FIFO order, and no slot
// is double-allocated (checked implicitly by the tracker's panics).
// The readiness stamps agree with Front every cycle, with full and
// with capped VC rows, also after a mid-sequence checkpoint round
// trip into a fresh buffer, which re-derives them.
func TestUBSConservationProperty(t *testing.T) {
	for _, vcs := range []int{12, 5} {
		vcs := vcs
		prop := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			b := NewUBSWithVCs(12, vcs)
			model := make([][]uint64, vcs)
			occupied := 0
			id := uint64(0)
			now := int64(0)
			for step := 0; step < 600; step++ {
				now++
				if step == 300 {
					record := func(c *snap.Codec) func(*flit.Packet) {
						return func(p *flit.Packet) {
							c.U64(&p.ID)
							c.Int(&p.Size)
						}
					}
					data, err := snap.Save(func(c *snap.Codec) {
						c.PacketTable(record(c))
						b.State(c)
					})
					if err != nil {
						return false
					}
					r, err := snap.Open(data)
					if err != nil {
						return false
					}
					fresh := NewUBSWithVCs(12, vcs)
					r.PacketTable(record(r))
					fresh.State(r)
					if err := r.Finish(); err != nil {
						return false
					}
					for v := 0; v < vcs; v++ {
						for _, at := range []int64{now, now + 1} {
							got, want := fresh.Front(v, at), b.Front(v, at)
							if (got == nil) != (want == nil) || (got != nil && got.Pkt.ID != want.Pkt.ID) {
								return false
							}
						}
					}
					b = fresh
				}
				if !ubsReadyMatchesFront(b, now) {
					return false
				}
				vc := rng.Intn(vcs)
				if rng.Intn(2) == 0 && occupied < 12 {
					// One-flit packets: any interleaving of them is a legal
					// wormhole order, which the checkpoint walk insists on.
					one := &flit.Flit{Pkt: &flit.Packet{ID: id, Size: 1}, Type: flit.HeadTail, VC: vc}
					if err := b.Write(one, now); err != nil {
						return false
					}
					model[vc] = append(model[vc], id)
					occupied++
					id++
				} else if f := b.Front(vc, now); f != nil {
					if len(model[vc]) == 0 || f.Pkt.ID != model[vc][0] {
						return false
					}
					if _, err := b.Pop(vc, now); err != nil {
						return false
					}
					model[vc] = model[vc][1:]
					occupied--
				}
				if b.Occupied() != occupied {
					return false
				}
				for v := range model {
					if b.Len(v) != len(model[v]) {
						return false
					}
				}
				if !ubsReadyMatchesFront(b, now) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
			t.Errorf("%d VC rows: %v", vcs, err)
		}
	}
}
