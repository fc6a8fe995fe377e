package buffers

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"vichar/internal/flit"
	"vichar/internal/snap"
)

func mkFlit(id uint64, vc int, typ flit.Type) *flit.Flit {
	return &flit.Flit{Pkt: &flit.Packet{ID: id, Size: 4}, Type: typ, VC: vc}
}

// single returns the only flit of a one-flit packet: any interleaving
// of such flits is a legal wormhole order, which the checkpoint walk
// insists on.
func single(id uint64, vc int) *flit.Flit {
	return &flit.Flit{Pkt: &flit.Packet{ID: id, Size: 1}, Type: flit.HeadTail, VC: vc}
}

// buffersUnderTest returns one instance of every architecture with 4
// VCs and 16 slots (ViChaR's with its VC IDs capped at 4).
func buffersUnderTest() map[string]Buffer {
	return map[string]Buffer{
		"generic": NewGeneric(4, 4),
		"damq0":   NewDAMQ(4, 16, 0),
		"fccb":    NewFCCB(4, 16),
		"vichar":  NewViChaR(4, 16),
	}
}

func TestShape(t *testing.T) {
	for name, b := range buffersUnderTest() {
		if b.Slots() != 16 {
			t.Errorf("%s: slots %d, want 16", name, b.Slots())
		}
		if b.MaxVCs() != 4 {
			t.Errorf("%s: VCs %d, want 4", name, b.MaxVCs())
		}
		if b.Occupied() != 0 || inUse(b) != 0 {
			t.Errorf("%s: fresh buffer not empty", name)
		}
	}
}

func TestWriteFrontPopFIFO(t *testing.T) {
	for name, b := range buffersUnderTest() {
		var want []uint64
		for i := uint64(0); i < 4; i++ {
			f := mkFlit(i, 1, flit.Body)
			if err := b.Write(f, 10); err != nil {
				t.Fatalf("%s: write %d: %v", name, i, err)
			}
			want = append(want, i)
		}
		if b.Len(1) != 4 {
			t.Fatalf("%s: len %d, want 4", name, b.Len(1))
		}
		for _, id := range want {
			f := b.Front(1, 100)
			if f == nil || f.Pkt.ID != id {
				t.Fatalf("%s: front = %v, want id %d", name, f, id)
			}
			got, err := b.Pop(1, 100)
			if err != nil || got.Pkt.ID != id {
				t.Fatalf("%s: pop = %v (%v), want id %d", name, got, err, id)
			}
		}
		if b.Occupied() != 0 {
			t.Fatalf("%s: not empty after draining", name)
		}
	}
}

// Flits must not be readable in the cycle they are written
// (buffer-write stage).
func TestSameCycleInvisibility(t *testing.T) {
	for name, b := range buffersUnderTest() {
		if name == "damq0" {
			continue // covered with its own delay semantics below
		}
		if err := b.Write(mkFlit(1, 0, flit.Head), 5); err != nil {
			t.Fatal(err)
		}
		if b.Front(0, 5) != nil {
			t.Errorf("%s: flit visible in its write cycle", name)
		}
		if b.Front(0, 6) == nil {
			t.Errorf("%s: flit invisible one cycle after write", name)
		}
	}
}

func TestPopEmpty(t *testing.T) {
	for name, b := range buffersUnderTest() {
		if _, err := b.Pop(0, 100); !errors.Is(err, ErrEmpty) {
			t.Errorf("%s: pop of empty vc returned %v", name, err)
		}
	}
}

func TestBadVC(t *testing.T) {
	for name, b := range buffersUnderTest() {
		if err := b.Write(mkFlit(1, 9, flit.Head), 1); !errors.Is(err, ErrBadVC) {
			t.Errorf("%s: write to vc 9 returned %v", name, err)
		}
		if err := b.Write(mkFlit(1, -1, flit.Head), 1); !errors.Is(err, ErrBadVC) {
			t.Errorf("%s: write to vc -1 returned %v", name, err)
		}
		if b.Front(9, 10) != nil || b.Len(9) != 0 || b.FreeSlotsFor(9) != 0 {
			t.Errorf("%s: out-of-range vc not inert", name)
		}
	}
}

func TestGenericPartitioning(t *testing.T) {
	b := NewGeneric(4, 4)
	// Fill VC 0 to its private depth.
	for i := 0; i < 4; i++ {
		if err := b.Write(mkFlit(uint64(i), 0, flit.Body), 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Write(mkFlit(99, 0, flit.Body), 1); !errors.Is(err, ErrFull) {
		t.Fatalf("over-depth write returned %v", err)
	}
	// Other VCs remain fully available: the static partition cannot
	// lend slots.
	if got := b.FreeSlotsFor(1); got != 4 {
		t.Fatalf("vc 1 free slots %d, want 4", got)
	}
	if err := b.Write(mkFlit(100, 1, flit.Body), 1); err != nil {
		t.Fatalf("vc 1 write failed: %v", err)
	}
}

func TestSharedPoolLending(t *testing.T) {
	// DAMQ, FC-CB and ViChaR let one VC absorb the whole pool.
	for name, b := range map[string]Buffer{
		"damq":   NewDAMQ(4, 16, 0),
		"fccb":   NewFCCB(4, 16),
		"vichar": NewViChaR(4, 16),
	} {
		for i := 0; i < 16; i++ {
			if err := b.Write(mkFlit(uint64(i), 2, flit.Body), 1); err != nil {
				t.Fatalf("%s: write %d: %v", name, i, err)
			}
		}
		if err := b.Write(mkFlit(99, 3, flit.Body), 1); !errors.Is(err, ErrFull) {
			t.Fatalf("%s: overfull write returned %v", name, err)
		}
		if got := b.FreeSlotsFor(0); got != 0 {
			t.Fatalf("%s: free slots %d with full pool", name, got)
		}
	}
}

func TestDAMQThreeCycleVisibility(t *testing.T) {
	b := NewDAMQ(4, 16, 3)
	if err := b.Write(mkFlit(1, 0, flit.Head), 10); err != nil {
		t.Fatal(err)
	}
	for now := int64(10); now < 13; now++ {
		if b.Front(0, now) != nil {
			t.Fatalf("flit visible at %d, before the 3-cycle bookkeeping", now)
		}
	}
	if b.Front(0, 13) == nil {
		t.Fatal("flit invisible at arrival+3")
	}
}

func TestDAMQReadPortBusy(t *testing.T) {
	b := NewDAMQ(4, 16, 3)
	for i := 0; i < 3; i++ {
		if err := b.Write(mkFlit(uint64(i), 0, flit.Body), 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Pop(0, 10); err != nil {
		t.Fatal(err)
	}
	// The read port is busy for the bookkeeping delay.
	if b.Front(0, 11) != nil || b.Front(0, 12) != nil {
		t.Fatal("queue readable during the read-port busy window")
	}
	if b.Front(0, 13) == nil {
		t.Fatal("queue still unreadable after the busy window")
	}
	// Another queue is unaffected.
	if err := b.Write(mkFlit(9, 1, flit.Body), 0); err != nil {
		t.Fatal(err)
	}
	if b.Front(1, 11) == nil {
		t.Fatal("independent queue blocked by vc 0's read port")
	}
}

func TestDAMQZeroDelayBehavesLikeFCCB(t *testing.T) {
	d := NewDAMQ(4, 16, 0)
	f := NewFCCB(4, 16)
	rng := rand.New(rand.NewSource(4))
	now := int64(0)
	for step := 0; step < 2000; step++ {
		now++
		vc := rng.Intn(4)
		if rng.Intn(2) == 0 && d.FreeSlotsFor(vc) > 0 {
			fd := mkFlit(uint64(step), vc, flit.Body)
			ff := mkFlit(uint64(step), vc, flit.Body)
			if err := d.Write(fd, now); err != nil {
				t.Fatal(err)
			}
			if err := f.Write(ff, now); err != nil {
				t.Fatal(err)
			}
		} else {
			df := d.Front(vc, now)
			ff := f.Front(vc, now)
			if (df == nil) != (ff == nil) {
				t.Fatalf("step %d: visibility diverged", step)
			}
			if df != nil {
				a, _ := d.Pop(vc, now)
				b, _ := f.Pop(vc, now)
				if a.Pkt.ID != b.Pkt.ID {
					t.Fatalf("step %d: order diverged", step)
				}
			}
		}
		if d.Occupied() != f.Occupied() {
			t.Fatalf("step %d: occupancy diverged", step)
		}
	}
}

func TestConstructorPanics(t *testing.T) {
	cases := []func(){
		func() { NewGeneric(0, 4) },
		func() { NewGeneric(4, 0) },
		func() { NewDAMQ(0, 16, 3) },
		func() { NewDAMQ(4, 3, 3) },
		func() { NewDAMQ(4, 16, -1) },
		func() { NewFCCB(0, 16) },
		func() { NewFCCB(4, 2) },
		func() { NewViChaR(0, 4) },
		func() { NewViChaR(5, 4) },
		func() { NewViChaR(4, 0) },
		func() { NewFCCB(1, 1<<15) },
	}
	for i, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("constructor case %d did not panic", i)
				}
			}()
			c()
		}()
	}
}

// inUse counts the VCs holding at least one flit.
func inUse(b Buffer) int {
	n := 0
	for v := 0; v < b.MaxVCs(); v++ {
		if b.Len(v) > 0 {
			n++
		}
	}
	return n
}

// readyMatchesFront checks the readiness contract: ReadyAt()[v] <= now
// iff Front(v, now) returns a flit.
func readyMatchesFront(b Buffer, now int64) bool {
	for v, at := range b.ReadyAt() {
		if (at <= now) != (b.Front(v, now) != nil) {
			return false
		}
	}
	return true
}

// reload round-trips b's contents through a checkpoint into fresh, a
// buffer of the same shape, and reports whether fresh then shows the
// same head flits (rebuilt, so compared by packet) as b at cycle now
// and over the following cycles — the restored stamps must reproduce
// every pending visibility delay.
func reload(b, fresh Buffer, now int64) bool {
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
	r.PacketTable(record(r))
	fresh.State(r)
	if err := r.Finish(); err != nil {
		return false
	}
	for v := 0; v < b.MaxVCs(); v++ {
		for at := now; at < now+5; at++ {
			got, want := fresh.Front(v, at), b.Front(v, at)
			if (got == nil) != (want == nil) || (got != nil && (got.Pkt.ID != want.Pkt.ID || got.ArrivedAt != want.ArrivedAt)) {
				return false
			}
		}
	}
	return true
}

// Property: under random interleaved writes and pops every buffer
// preserves per-VC FIFO order and exact occupancy accounting, its
// readiness stamps agree with Front every cycle and its slot-pool
// audit stays silent — also after a mid-sequence checkpoint round trip
// into a fresh buffer, which rebuilds the free chain and re-derives the
// stamps. ViChaR runs with a queue per slot and with its VC IDs capped
// below the slot count.
func TestRandomOpsInvariants(t *testing.T) {
	type archMk struct {
		name string
		mk   func() Buffer
	}
	for _, am := range []archMk{
		{"generic", func() Buffer { return NewGeneric(4, 4) }},
		{"damq", func() Buffer { return NewDAMQ(4, 16, 3) }},
		{"damq0", func() Buffer { return NewDAMQ(4, 16, 0) }},
		{"damq1", func() Buffer { return NewDAMQ(4, 16, 1) }},
		{"fccb", func() Buffer { return NewFCCB(4, 16) }},
		{"vichar", func() Buffer { return NewViChaR(12, 12) }},
		{"vichar-capped", func() Buffer { return NewViChaR(5, 12) }},
	} {
		am := am
		t.Run(am.name, func(t *testing.T) {
			prop := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				b := am.mk()
				vcs := b.MaxVCs()
				model := make([][]uint64, vcs)
				occupied := 0
				now := int64(0)
				id := uint64(0)
				for step := 0; step < 500; step++ {
					now++
					if step == 250 {
						fresh := am.mk()
						if !reload(b, fresh, now) {
							return false
						}
						b = fresh
					}
					if !readyMatchesFront(b, now) {
						return false
					}
					vc := rng.Intn(vcs)
					if rng.Intn(2) == 0 {
						if b.FreeSlotsFor(vc) == 0 {
							if err := b.Write(single(id, vc), now); !errors.Is(err, ErrFull) {
								return false
							}
							continue
						}
						if err := b.Write(single(id, vc), now); err != nil {
							return false
						}
						model[vc] = append(model[vc], id)
						occupied++
						id++
					} else {
						f := b.Front(vc, now)
						if f == nil {
							continue
						}
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
					for v := 0; v < vcs; v++ {
						if b.Len(v) != len(model[v]) {
							return false
						}
					}
					if !readyMatchesFront(b, now) || b.(*Queues).Audit(false) != nil {
						return false
					}
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
				t.Error(err)
			}
		})
	}
}

// A queue is a chain through the pool: FIFO order must survive slots
// freed by one queue being reused by another, in any order, and a
// fill-and-drain cycle must never allocate.
func TestQueueOrderThroughSlotReuse(t *testing.T) {
	b := NewViChaR(3, 8)
	model := make([][]uint64, 3)
	next := uint64(0)
	for step := 0; step < 600; step++ {
		vc := step * 7 % 3
		if step%5 < 3 && b.FreeSlotsFor(vc) > 0 {
			if err := b.Write(single(next, vc), int64(step)); err != nil {
				t.Fatal(err)
			}
			model[vc] = append(model[vc], next)
			next++
		} else if len(model[vc]) > 0 {
			f, err := b.Pop(vc, int64(step)+1)
			if err != nil || f.Pkt.ID != model[vc][0] {
				t.Fatalf("step %d: popped %v (%v), want id %d", step, f, err, model[vc][0])
			}
			model[vc] = model[vc][1:]
		}
		if err := b.Audit(false); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}

	f, fresh := single(1, 2), NewViChaR(3, 8)
	if n := testing.AllocsPerRun(100, func() {
		for fresh.FreeSlotsFor(2) > 0 {
			_ = fresh.Write(f, 0)
		}
		for fresh.Front(2, 1) != nil {
			_, _ = fresh.Pop(2, 1)
		}
	}); n != 0 || fresh.Occupied() != 0 {
		t.Fatalf("a fill-and-drain cycle allocates %.0f times and leaves %d flits", n, fresh.Occupied())
	}
}

// One VC's flits land in whichever slots are free, so when other VCs
// interleave they are not consecutive — the UBS's key flexibility
// (paper §3.2) — and still leave in FIFO order.
func TestViChaRNonConsecutiveSlots(t *testing.T) {
	b := NewViChaR(8, 8)
	for _, f := range []*flit.Flit{mkFlit(0, 0, flit.Head), mkFlit(1, 1, flit.Head), mkFlit(2, 0, flit.Body)} {
		if err := b.Write(f, 1); err != nil {
			t.Fatal(err)
		}
	}
	if first, second := b.head[0], b.next[b.head[0]]; second-first == 1 || b.count[0] != 2 {
		t.Fatalf("vc 0 holds slots %d, %d: expected non-consecutive", first, second)
	}
	for _, want := range []uint64{0, 2} {
		if f, err := b.Pop(0, 100); err != nil || f.Pkt.ID != want {
			t.Fatalf("pop got %v (%v), want id %d", f, err, want)
		}
	}
}

// Every slot can be its own single-flit VC (many shallow VCs under
// heavy traffic, paper Figure 5's rightmost configuration).
func TestViChaRAllSingleFlitVCs(t *testing.T) {
	b := NewViChaR(8, 8)
	for vc := 0; vc < 8; vc++ {
		if err := b.Write(mkFlit(uint64(vc), vc, flit.Head), 1); err != nil {
			t.Fatal(err)
		}
	}
	if inUse(b) != 8 || b.FreeSlotsFor(0) != 0 {
		t.Fatalf("in-use VCs %d, free %d; want 8, 0", inUse(b), b.FreeSlotsFor(0))
	}
	for vc := 0; vc < 8; vc++ {
		f, err := b.Pop(vc, 10)
		if err != nil || f.Pkt.ID != uint64(vc) {
			t.Fatalf("vc %d pop %v (%v)", vc, f, err)
		}
	}
}

// A snapshot whose queues overrun their depth or, together, the pool,
// name one flit twice, or hold flits out of wormhole order is refused
// instead of linking a corrupt pool.
func TestLoadRejectsCorruptQueues(t *testing.T) {
	pkt := &flit.Packet{ID: 7, Size: 3}
	fs := flit.MakeFlits(pkt)
	// queues writes a ViChaR section holding, per queue, flits of pkt
	// by sequence number; a flit carries its queue's VC unless vcOf
	// names another.
	queues := func(vcOf func(vc int) int, q ...[]int) func(c *snap.Codec) {
		return func(c *snap.Codec) {
			c.PacketTable(func(p *flit.Packet) { c.U64(&p.ID); c.Int(&p.Size) })
			c.Section("vichar")
			c.Expect(len(q), "queues")
			for vc, seqs := range q {
				c.Len(len(seqs), len(seqs), "len")
				for _, s := range seqs {
					f := fs[s]
					f.VC = vcOf(vc)
					c.Flit(&f)
				}
			}
		}
	}
	own := func(vc int) int { return vc }
	for name, tc := range map[string]struct {
		walk       func(c *snap.Codec)
		vcs, slots int
		ok         bool
	}{
		"legal":               {queues(own, []int{}, []int{0, 1, 2}), 2, 3, true},
		"over the pool":       {queues(own, []int{0, 1}, []int{2}), 2, 2, false},
		"over depth and pool": {queues(own, []int{0, 1, 2}), 1, 2, false},
		"flit named twice":    {queues(own, []int{0, 0}), 1, 4, false},
		"out of order":        {queues(own, []int{1, 0}), 1, 4, false},
		"another VC's flit":   {queues(func(vc int) int { return 1 - vc }, []int{0, 1}, []int{}), 2, 4, false},
	} {
		data, err := snap.Save(tc.walk)
		if err != nil {
			t.Fatal(err)
		}
		r, err := snap.Open(data)
		if err != nil {
			t.Fatal(err)
		}
		r.PacketTable(func(p *flit.Packet) { r.U64(&p.ID); r.Int(&p.Size) })
		b := NewViChaR(tc.vcs, tc.slots)
		if b.State(r); (r.Err() == nil && r.Finish() == nil) != tc.ok {
			t.Errorf("%s: accepted %v, want %v (%v)", name, !tc.ok, tc.ok, r.Err())
		}
		if err := b.Audit(true); tc.ok && err != nil {
			t.Errorf("%s: loaded pool fails its audit: %v", name, err)
		}
	}
}
