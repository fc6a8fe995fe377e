package soa

import "testing"

func TestPoolTakesAreDisjointZeroedAndCapped(t *testing.T) {
	p := NewPool[int16](8)
	a := p.Take(3)
	b := p.Take(5)
	if len(a) != 3 || cap(a) != 3 || len(b) != 5 || cap(b) != 5 {
		t.Fatalf("takes have len/cap %d/%d and %d/%d, want 3/3 and 5/5", len(a), cap(a), len(b), cap(b))
	}
	for i := range a {
		a[i] = -1
	}
	for i, v := range b {
		if v != 0 {
			t.Fatalf("second take element %d = %d after writing the first take; takes overlap", i, v)
		}
	}
	// Appending to a take must not spill into its neighbour.
	a = append(a, 7)
	if b[0] != 0 {
		t.Fatal("append to a take wrote into the next take")
	}
	if p.Used() != 8 || p.Overflow() != 0 {
		t.Fatalf("used %d overflow %d, want 8 and 0", p.Used(), p.Overflow())
	}
}

func TestPoolOverflowFallsBackAndCounts(t *testing.T) {
	p := NewPool[uint64](2)
	p.Take(2)
	s := p.Take(4)
	if len(s) != 4 {
		t.Fatalf("overflow take has %d elements, want 4", len(s))
	}
	if p.Overflow() != 4 || p.Used() != 2 {
		t.Fatalf("overflow %d used %d, want 4 and 2", p.Overflow(), p.Used())
	}
	if p.Take(0) != nil || p.Take(-1) != nil {
		t.Fatal("an empty take returned storage")
	}
}

func TestNilPoolAndArenaDegradeToAllocation(t *testing.T) {
	var p *Pool[bool]
	if s := p.Take(3); len(s) != 3 || p.Used() != 0 || p.Overflow() != 0 {
		t.Fatalf("nil pool: take len %d used %d overflow %d", len(s), p.Used(), p.Overflow())
	}
	var a *Arena
	if len(a.TakeFlits(2)) != 2 || len(a.TakeInt16s(3)) != 3 || len(a.TakeInt64s(4)) != 4 ||
		len(a.TakeWords(5)) != 5 || len(a.TakeBools(6)) != 6 || a.Overflow() != 0 {
		t.Fatal("nil arena did not serve plain allocations")
	}
}

func TestArenaOverflowSumsEveryPool(t *testing.T) {
	a := NewArena(1, 1, 1, 1, 1)
	a.TakeFlits(1)
	a.TakeInt16s(1)
	a.TakeInt64s(1)
	a.TakeWords(1)
	a.TakeBools(1)
	if a.Overflow() != 0 {
		t.Fatalf("exact-fit arena overflowed by %d", a.Overflow())
	}
	a.TakeFlits(1)
	a.TakeInt16s(2)
	a.TakeInt64s(3)
	a.TakeWords(4)
	a.TakeBools(5)
	if a.Overflow() != 15 {
		t.Fatalf("overflow %d, want 15 (1+2+3+4+5)", a.Overflow())
	}
}
