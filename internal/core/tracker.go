package core

import (
	"fmt"
	"math/bits"

	"vichar/internal/soa"
)

// Tracker is the availability bookkeeping shared by the Slot
// Availability Tracker and the VC Availability Tracker (paper Figure
// 9 bottom-right and Figure 10 top-left): one bit per entry — 1 for
// available, 0 for occupied — plus a free count. Acquire grants the
// top-most (lowest-numbered) available entry with a word scan and a
// trailing-zero count, matching the combinational single-cycle
// hardware; the bitmap words live in the network arena so every
// tracker of a router sits on adjacent cache lines.
//
// As the VC Availability Tracker it spans every VC ID of a port, the
// escape set included: a grant is FirstInRange over the requesting
// kind's span (regular or escape, chunked per VC class), then Take, so
// the lowest free ID of that span is dispensed first.
type Tracker struct {
	words []uint64
	n     int
	free  int
}

// NewTracker returns a tracker over n entries, all available.
func NewTracker(n int) *Tracker {
	t := &Tracker{}
	t.Init(n, nil)
	return t
}

// Init readies a (possibly embedded) tracker over n entries, drawing
// its bitmap from the arena when one is supplied (nil-arena safe).
func (t *Tracker) Init(n int, a *soa.Arena) {
	if n < 1 {
		panic(fmt.Sprintf("core: tracker needs at least one entry, got %d", n))
	}
	t.n = n
	t.free = n
	t.words = a.TakeWords((n + 63) / 64)
	for i := range t.words {
		t.words[i] = ^uint64(0)
	}
	// Bits at or above n stay permanently zero so word scans never
	// grant a phantom entry.
	if r := uint(n) & 63; r != 0 {
		t.words[len(t.words)-1] = 1<<r - 1
	}
}

// Size returns the number of tracked entries.
func (t *Tracker) Size() int { return t.n }

// Free returns the number of available entries.
func (t *Tracker) Free() int { return t.free }

// Available reports whether entry i is free.
func (t *Tracker) Available(i int) bool {
	return i >= 0 && i < t.n && t.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Acquire claims and returns the top-most available entry, or -1 when
// the table is all-zero (everything occupied) — the condition the
// paper reflects into the credit information sent to adjacent
// routers.
func (t *Tracker) Acquire() int {
	if t.free == 0 {
		return -1
	}
	for w, m := range t.words {
		if m != 0 {
			b := bits.TrailingZeros64(m)
			t.words[w] = m &^ (1 << uint(b))
			t.free--
			return w<<6 + b
		}
	}
	//vichar:invariant unreachable while free>0 — the free counter diverged from the availability bitmap
	panic("core: tracker free count out of sync with bitmap")
}

// rangeWord masks word w of the bitmap down to the bits covering
// entries [lo, hi).
func (t *Tracker) rangeWord(w, lo, hi int) uint64 {
	m := t.words[w]
	if w == lo>>6 {
		m &= ^uint64(0) << (uint(lo) & 63)
	}
	if w == (hi-1)>>6 {
		if r := uint(hi) & 63; r != 0 {
			m &= 1<<r - 1
		}
	}
	return m
}

// FirstInRange returns the top-most available entry within [lo, hi),
// or -1 when that span is fully occupied. It only peeks: Take claims
// the entry. Over the whole tracker it names exactly the entry Acquire
// would grant — the span is a restriction, not a different policy.
func (t *Tracker) FirstInRange(lo, hi int) int {
	lo, hi = max(lo, 0), min(hi, t.n)
	for w := lo >> 6; lo < hi && w <= (hi-1)>>6; w++ {
		if m := t.rangeWord(w, lo, hi); m != 0 {
			return w<<6 + bits.TrailingZeros64(m)
		}
	}
	return -1
}

// Take claims entry i. Taking an occupied entry is a bookkeeping bug
// and panics, as releasing a free one does.
func (t *Tracker) Take(i int) {
	if !t.Available(i) {
		//vichar:invariant a claim names an entry FirstInRange offered; an occupied one means a double grant
		panic(fmt.Sprintf("core: take of occupied entry %d", i))
	}
	t.words[i>>6] &^= 1 << (uint(i) & 63)
	t.free--
}

// Release marks entry i available again. Releasing a free entry is a
// bookkeeping bug and panics.
func (t *Tracker) Release(i int) {
	if i < 0 || i >= t.n {
		//vichar:invariant releasing an entry outside the tracker means a corrupted slot id
		panic(fmt.Sprintf("core: release of entry %d outside tracker of %d", i, t.n))
	}
	bit := uint64(1) << (uint(i) & 63)
	if t.words[i>>6]&bit != 0 {
		//vichar:invariant double release — the slot-conservation bug the audit exists to catch
		panic(fmt.Sprintf("core: double release of entry %d", i))
	}
	t.words[i>>6] |= bit
	t.free++
}
