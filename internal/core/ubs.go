package core

import (
	"fmt"

	"vichar/internal/buffers"
	"vichar/internal/flit"
	"vichar/internal/soa"
)

// UBS is the Unified Buffer Structure of one router input port: a
// pool of slots flits shared by up to slots virtual channels.
// Physically it is the same storage as a generic v x k buffer —
// "logically grouped in a single vk-flit entity" (paper §3.2) — so
// its capacity is v*k, but any slot can serve any VC and a VC's slots
// need not be consecutive.
//
// UBS implements buffers.Buffer. The arriving-flit path consults the
// Slot Availability Tracker for a free slot and records it in the VC
// Control Table; the departing-flit path reads the table row's first
// entry. Both complete within the cycle, and flits become readable
// the cycle after they are written (buffer-write stage), exactly like
// the generic parallel FIFO.
type UBS struct {
	slots []*flit.Flit
	// readyAt[vc] is the first cycle the flit at the VC's
	// departing-flit pointer is readable — its own arrival stamp plus
	// the buffer-write cycle — or buffers.NeverReady while the row is
	// empty. It changes only with the head, on a push to an empty row
	// and on a pop. Front and Pop gate on it, and the switch allocator
	// reads it directly (ReadyAt).
	readyAt []int64
	// words is ReadyWords' scratch, made on its first call.
	words   []uint64
	tracker Tracker
	table   Table
}

// NewUBS returns a unified buffer with the given slot count. The
// number of VC rows equals the slot count: under full load every slot
// can be its own single-flit VC (paper Figure 5, rightmost
// configuration).
func NewUBS(slots int) *UBS { return NewUBSWithVCs(slots, slots) }

// NewUBSWithVCs returns a unified buffer whose control table has
// fewer VC rows than slots; used by the ablation that caps the Token
// Dispenser below the full vk.
func NewUBSWithVCs(slots, vcs int) *UBS { return NewUBSIn(nil, slots, vcs) }

// NewUBSIn is NewUBSWithVCs drawing the slot array, tracker bitmap and
// control-table rings from the arena (nil-arena safe), so the unified
// buffers of adjacent ports and routers pack contiguously.
func NewUBSIn(a *soa.Arena, slots, vcs int) *UBS {
	if slots < 1 {
		panic(fmt.Sprintf("core: UBS needs at least one slot, got %d", slots))
	}
	if vcs < 1 || vcs > slots {
		panic(fmt.Sprintf("core: UBS VC rows must be in [1,%d], got %d", slots, vcs))
	}
	b := &UBS{slots: a.TakeFlits(slots), readyAt: a.TakeInt64s(vcs)}
	for i := range b.readyAt {
		b.readyAt[i] = buffers.NeverReady
	}
	b.tracker.Init(slots, a)
	// Any slot can serve any VC, so each row's ring must be able to
	// hold every slot.
	b.table.init(vcs, slots, a)
	return b
}

// Slots returns the pool capacity.
func (b *UBS) Slots() int { return len(b.slots) }

// MaxVCs returns the number of VC identifiers (the control table's
// row count; equal to the slot count unless capped).
func (b *UBS) MaxVCs() int { return b.table.Rows() }

// FreeSlotsFor returns the shared pool headroom; every VC sees the
// same pool.
func (b *UBS) FreeSlotsFor(vc int) int {
	if vc < 0 || vc >= b.table.Rows() {
		return 0
	}
	return b.tracker.Free()
}

// Write steers f into the slot indicated by the Slot Availability
// Tracker and appends the slot ID to f.VC's control-table row.
func (b *UBS) Write(f *flit.Flit, now int64) error {
	if f.VC < 0 || f.VC >= b.table.Rows() {
		return buffers.ErrBadVC
	}
	slot := b.tracker.Acquire()
	if slot < 0 {
		return buffers.ErrFull
	}
	f.ArrivedAt = now
	b.slots[slot] = f
	if b.table.Len(f.VC) == 0 {
		b.readyAt[f.VC] = now + 1
	}
	b.table.Append(f.VC, slot)
	return nil
}

// ReadyAt returns the per-VC first-readable stamps (buffers.Buffer).
func (b *UBS) ReadyAt() []int64 { return b.readyAt }

// ReadyWords returns the readiness mask at cycle now, derived from the
// stamps: bit v is set iff ReadyAt()[v] <= now. No router stage calls
// it; it serves whole-port polls outside the kernel. The words are
// read-only and valid until the next call.
func (b *UBS) ReadyWords(now int64) []uint64 {
	if b.words == nil {
		b.words = make([]uint64, (len(b.readyAt)+63)/64)
	}
	clear(b.words)
	for v, at := range b.readyAt {
		if at <= now {
			b.words[v>>6] |= 1 << (uint(v) & 63)
		}
	}
	return b.words
}

// Front returns the flit at the VC's departing-flit pointer if it is
// readable at cycle now. The head stamp gates the control-table walk:
// an empty or not-yet-readable row answers without it.
func (b *UBS) Front(vc int, now int64) *flit.Flit {
	if vc < 0 || vc >= len(b.readyAt) || b.readyAt[vc] > now {
		return nil
	}
	slot := b.table.Head(vc)
	if slot < 0 {
		return nil // an empty row probed at now == NeverReady
	}
	f := b.slots[slot]
	if f == nil {
		//vichar:invariant the VC Control Table must only name occupied slots; an empty one is table/tracker divergence
		panic(fmt.Sprintf("core: control table names empty slot %d for vc %d", slot, vc))
	}
	return f
}

// Pop removes the VC's head flit, NULLing its table entry, returning
// its slot to the tracker and restamping the row from its new head.
func (b *UBS) Pop(vc int, now int64) (*flit.Flit, error) {
	f := b.Front(vc, now)
	if f == nil {
		return nil, buffers.ErrEmpty
	}
	slot := b.table.PopHead(vc)
	b.slots[slot] = nil
	b.tracker.Release(slot)
	b.restamp(vc)
	return f, nil
}

// restamp recomputes row vc's first-readable cycle from the flit at
// its departing-flit pointer.
func (b *UBS) restamp(vc int) {
	b.readyAt[vc] = buffers.NeverReady
	if head := b.table.Head(vc); head >= 0 {
		b.readyAt[vc] = b.slots[head].ArrivedAt + 1
	}
}

// Len returns the number of flits the VC currently owns.
func (b *UBS) Len(vc int) int { return b.table.Len(vc) }

// Occupied returns the number of slots in use.
func (b *UBS) Occupied() int { return len(b.slots) - b.tracker.Free() }

// SlotsOf exposes the VC's slot list for tests and diagnostics.
func (b *UBS) SlotsOf(vc int) []int {
	//vichar:alloc diagnostic copy for tests and the invariant audit; not on the steady-state tick path
	return b.table.Slots(vc)
}

// SlotFree reports whether the Slot Availability Tracker marks slot i
// free; out-of-range IDs report false. Used by the invariant auditor
// to cross-check the tracker bitmap against the VC Control Table.
func (b *UBS) SlotFree(i int) bool { return b.tracker.Available(i) }

// FlitAt returns the flit stored in slot i, or nil when the slot is
// empty or out of range. Used by the invariant auditor.
func (b *UBS) FlitAt(i int) *flit.Flit {
	if i < 0 || i >= len(b.slots) {
		return nil
	}
	return b.slots[i]
}

var _ buffers.Buffer = (*UBS)(nil)
