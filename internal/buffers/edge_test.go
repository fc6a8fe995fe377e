package buffers

import (
	"errors"
	"testing"

	"vichar/internal/flit"
)

// TestDepthOneBuffers drives every architecture at its minimum
// capacity: depth-1 FIFOs (generic) and single-slot-per-VC pools.
// The degenerate shape exposes off-by-ones in free-slot accounting
// that comfortable depths mask.
func TestDepthOneBuffers(t *testing.T) {
	cases := map[string]Buffer{
		"generic-4x1": NewGeneric(4, 1),
		"damq-4x4":    NewDAMQ(4, 4, 0),
		"fccb-4x4":    NewFCCB(4, 4),
	}
	for name, b := range cases {
		t.Run(name, func(t *testing.T) {
			// One flit per VC fills the buffer exactly.
			for vc := 0; vc < 4; vc++ {
				if free := b.FreeSlotsFor(vc); free < 1 {
					t.Fatalf("vc %d: no free slot in an empty buffer", vc)
				}
				if err := b.Write(mkFlit(uint64(vc), vc, flit.Body), 1); err != nil {
					t.Fatalf("vc %d: %v", vc, err)
				}
			}
			if b.Occupied() != 4 || inUse(b) != 4 {
				t.Fatalf("occupied %d, in-use VCs %d; want 4, 4", b.Occupied(), inUse(b))
			}
			for vc := 0; vc < 4; vc++ {
				if free := b.FreeSlotsFor(vc); free != 0 {
					t.Fatalf("vc %d: %d free slots in a full buffer", vc, free)
				}
				if err := b.Write(mkFlit(9, vc, flit.Body), 1); !errors.Is(err, ErrFull) {
					t.Fatalf("vc %d: overfull write returned %v, want ErrFull", vc, err)
				}
			}
			// Drain and refill each VC to catch stale head/tail state.
			for round := 0; round < 3; round++ {
				for vc := 0; vc < 4; vc++ {
					if _, err := b.Pop(vc, int64(10+round)); err != nil {
						t.Fatalf("round %d vc %d: %v", round, vc, err)
					}
					if err := b.Write(mkFlit(uint64(round), vc, flit.Body), int64(10+round)); err != nil {
						t.Fatalf("round %d vc %d refill: %v", round, vc, err)
					}
				}
			}
			if b.Occupied() != 4 {
				t.Fatalf("occupied %d after drain/refill rounds, want 4", b.Occupied())
			}
		})
	}
}

// TestFIFOWrapAroundCompaction pushes a single VC far past the
// internal FIFO's compaction threshold (head > 8 and past half the
// backing array) with a full-buffer, pop-then-push cadence, checking
// strict FIFO order throughout. A compaction bug that drops or
// duplicates a slot shows up as a sequence break.
func TestFIFOWrapAroundCompaction(t *testing.T) {
	cases := map[string]func() Buffer{
		"generic-1x4": func() Buffer { return NewGeneric(1, 4) },
		"damq-1x4":    func() Buffer { return NewDAMQ(1, 4, 0) },
		"fccb-1x4":    func() Buffer { return NewFCCB(1, 4) },
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			b := mk()
			next := uint64(0)
			for ; next < 4; next++ {
				if err := b.Write(mkFlit(next, 0, flit.Body), 0); err != nil {
					t.Fatal(err)
				}
			}
			for want := uint64(0); want < 100; want++ {
				now := int64(want + 1)
				f, err := b.Pop(0, now)
				if err != nil {
					t.Fatalf("pop %d: %v", want, err)
				}
				if f.Pkt.ID != want {
					t.Fatalf("FIFO order broken at %d: got id %d", want, f.Pkt.ID)
				}
				if err := b.Write(mkFlit(next, 0, flit.Body), now); err != nil {
					t.Fatalf("write %d into freed slot: %v", next, err)
				}
				next++
				if b.Occupied() != 4 {
					t.Fatalf("occupancy %d mid-stream, want steady 4", b.Occupied())
				}
			}
		})
	}
}

// TestInterleavedAllocFree interleaves writes and pops across VCs in
// an adversarial pattern: fill the shared pool from one VC, free from
// another, and verify unified buffers lend slots back and forth
// without leaking capacity.
func TestInterleavedAllocFree(t *testing.T) {
	cases := map[string]Buffer{
		"damq": NewDAMQ(2, 4, 0),
		"fccb": NewFCCB(2, 4),
	}
	for name, b := range cases {
		t.Run(name, func(t *testing.T) {
			id := uint64(0)
			write := func(vc int, now int64) error {
				id++
				return b.Write(mkFlit(id, vc, flit.Body), now)
			}
			// VC 0 grabs the whole shared pool.
			for i := 0; i < 4; i++ {
				if err := write(0, 1); err != nil {
					t.Fatal(err)
				}
			}
			if free := b.FreeSlotsFor(1); free != 0 {
				t.Fatalf("vc 1 sees %d free slots in an exhausted pool", free)
			}
			if err := write(1, 1); !errors.Is(err, ErrFull) {
				t.Fatalf("write into exhausted pool returned %v, want ErrFull", err)
			}
			// Each slot VC 0 frees becomes VC 1's to claim, and vice
			// versa: ping-pong the pool's last slot between the VCs.
			for i := 0; i < 16; i++ {
				from, to := i%2, 1-i%2
				now := int64(2 + i)
				if b.Len(from) == 0 {
					from, to = to, from
				}
				if _, err := b.Pop(from, now); err != nil {
					t.Fatalf("iter %d: pop vc %d: %v", i, from, err)
				}
				if free := b.FreeSlotsFor(to); free != 1 {
					t.Fatalf("iter %d: freed slot not visible to vc %d (free=%d)", i, to, free)
				}
				if err := write(to, now); err != nil {
					t.Fatalf("iter %d: write vc %d: %v", i, to, err)
				}
				if b.Occupied() != 4 {
					t.Fatalf("iter %d: pool leaked: occupancy %d, want 4", i, b.Occupied())
				}
			}
			// Drain everything; the pool must return to fully free.
			for vc := 0; vc < 2; vc++ {
				for b.Len(vc) > 0 {
					if _, err := b.Pop(vc, 100); err != nil {
						t.Fatal(err)
					}
				}
			}
			if b.Occupied() != 0 || inUse(b) != 0 {
				t.Fatalf("pool not empty after drain: occupied %d, in-use %d", b.Occupied(), inUse(b))
			}
			for vc := 0; vc < 2; vc++ {
				if free := b.FreeSlotsFor(vc); free != 4 {
					t.Fatalf("vc %d: %d free slots after drain, want the full pool of 4", vc, free)
				}
			}
		})
	}
}

// TestPopEmptyAfterWrap checks ErrEmpty on a VC that was busy and
// drained — the stale-head case, distinct from a never-used VC.
func TestPopEmptyAfterWrap(t *testing.T) {
	for name, b := range buffersUnderTest() {
		for i := 0; i < 12; i++ {
			if err := b.Write(mkFlit(uint64(i), 2, flit.Body), 0); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if _, err := b.Pop(2, 1); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if _, err := b.Pop(2, 2); !errors.Is(err, ErrEmpty) {
			t.Errorf("%s: pop of drained VC returned %v, want ErrEmpty", name, err)
		}
		if f := b.Front(2, 2); f != nil {
			t.Errorf("%s: front of drained VC returned %v", name, f)
		}
	}
}

// TestGenericDepthOneIndependence pins the static partitioning at
// depth 1: filling every other VC never grants or steals the
// remaining VC's single private slot.
func TestGenericDepthOneIndependence(t *testing.T) {
	b := NewGeneric(4, 1)
	for vc := 0; vc < 3; vc++ {
		if err := b.Write(mkFlit(uint64(vc), vc, flit.Body), 1); err != nil {
			t.Fatal(err)
		}
	}
	if free := b.FreeSlotsFor(3); free != 1 {
		t.Fatalf("vc 3's private slot reports %d free, want 1", free)
	}
	if err := b.Write(mkFlit(7, 3, flit.Body), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Pop(0, 2); err != nil {
		t.Fatal(err)
	}
	// VC 0's freed slot is private: VC 3 must still be full.
	if err := b.Write(mkFlit(8, 3, flit.Body), 2); !errors.Is(err, ErrFull) {
		t.Fatalf("depth-1 partition leaked a slot across VCs: %v", err)
	}
}
