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
	// arrived[i] mirrors slots[i].ArrivedAt for occupied slots, so the
	// switch allocator's per-cycle readiness polls stay inside the
	// arena-backed side arrays instead of chasing flit pointers.
	arrived []int64
	// headArrived[vc] caches the arrival stamp of the VC's
	// departing-flit pointer (neverReady when the row is empty), so
	// Front and Pop gate on one load: the head only changes on a push
	// to an empty row or a pop.
	headArrived []int64
	// readyMask/pendMask accelerate the switch allocator's whole-port
	// readiness poll to one AND per 64 VCs (DESIGN.md §10). Bit v of
	// readyMask is set iff Front(v, now) != nil for every now > pendCycle;
	// bits whose head arrived AT cycle pendCycle wait in pendMask and
	// are promoted by the first operation of a later cycle. The stamps
	// above stay authoritative; the masks are a derived overlay,
	// cross-checked by CheckReadyMasks from the invariant audit.
	readyMask []uint64
	pendMask  []uint64
	pendCycle int64
	tracker   Tracker
	table     Table
}

// neverReady marks an empty VC row in headArrived: no cycle count
// reaches it, so the stamp compare also answers "is there a flit at
// all".
const neverReady = int64(^uint64(0) >> 1)

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
	w := (vcs + 63) / 64
	b := &UBS{
		slots:       a.TakeFlits(slots),
		arrived:     a.TakeInt64s(slots),
		headArrived: a.TakeInt64s(vcs),
		readyMask:   a.TakeWords(w),
		pendMask:    a.TakeWords(w),
	}
	for i := range b.headArrived {
		b.headArrived[i] = neverReady
	}
	b.tracker.init(slots, a)
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
	b.arrived[slot] = now
	if b.table.Len(f.VC) == 0 {
		b.headArrived[f.VC] = now
		b.flushPend(now)
		b.pendMask[uint(f.VC)>>6] |= 1 << (uint(f.VC) & 63)
	}
	b.table.Append(f.VC, slot)
	return nil
}

// flushPend promotes pending bits stamped before now into readyMask;
// after it returns, pendMask collects bits stamped exactly now.
func (b *UBS) flushPend(now int64) {
	if b.pendCycle == now {
		return
	}
	for i, p := range b.pendMask {
		if p != 0 {
			b.readyMask[i] |= p
			b.pendMask[i] = 0
		}
	}
	b.pendCycle = now
}

// ReadyWords returns the per-VC readiness bitmask as of cycle now:
// bit v is set iff Front(v, now) != nil. The switch allocator ANDs it
// against its active-VC mask, turning the whole-port poll into one
// word operation per 64 VCs. Callers must treat the words as
// read-only and re-call each cycle (the call promotes bits that
// became readable at the cycle boundary).
func (b *UBS) ReadyWords(now int64) []uint64 {
	b.flushPend(now)
	return b.readyMask
}

// Front returns the flit at the VC's departing-flit pointer if it is
// readable this cycle. The cached head stamp gates the control-table
// walk: an empty or not-yet-readable row answers without it.
func (b *UBS) Front(vc int, now int64) *flit.Flit {
	if vc < 0 || vc >= len(b.headArrived) || b.headArrived[vc] >= now {
		return nil
	}
	slot := b.table.Head(vc)
	f := b.slots[slot]
	if f == nil {
		//vichar:invariant the VC Control Table must only name occupied slots; an empty one is table/tracker divergence
		panic(fmt.Sprintf("core: control table names empty slot %d for vc %d", slot, vc))
	}
	return f
}

// Pop removes the VC's head flit, NULLing its table entry and
// returning its slot to the tracker. It reads the departing-flit
// pointer once instead of re-running Front's lookup.
func (b *UBS) Pop(vc int, now int64) (*flit.Flit, error) {
	if vc < 0 || vc >= len(b.headArrived) || b.headArrived[vc] >= now {
		return nil, buffers.ErrEmpty
	}
	slot, next := b.table.PopHeadNext(vc)
	f := b.slots[slot]
	if f == nil {
		//vichar:invariant the VC Control Table must only name occupied slots; an empty one is table/tracker divergence
		panic(fmt.Sprintf("core: control table names empty slot %d for vc %d", slot, vc))
	}
	b.slots[slot] = nil
	b.tracker.Release(slot)
	// The popped head was readable (stamp < now), so after promoting
	// anything stamped before now its bit sits in readyMask — a Pop
	// not preceded by ReadyWords may not have flushed yet this cycle.
	// The bit then stays only if the new head is itself already
	// readable.
	b.flushPend(now)
	if next >= 0 {
		at := b.arrived[next]
		b.headArrived[vc] = at
		if at >= now {
			b.readyMask[uint(vc)>>6] &^= 1 << (uint(vc) & 63)
			b.pendMask[uint(vc)>>6] |= 1 << (uint(vc) & 63)
		}
	} else {
		b.headArrived[vc] = neverReady
		b.readyMask[uint(vc)>>6] &^= 1 << (uint(vc) & 63)
	}
	return f, nil
}

// CheckReadyMasks cross-checks the readiness overlay against the
// authoritative head stamps at cycle now: bit v of readyMask — OR'd
// with pendMask when the pending bits were stamped before now and the
// next operation will promote them — must equal (head stamp < now),
// and bit v is pending exactly while v's head is stamped pendCycle. A
// pure read, used by the invariant audit and on freshly loaded
// checkpoints.
func (b *UBS) CheckReadyMasks(now int64) error {
	for v := 0; v < len(b.headArrived); v++ {
		w, bit := uint(v)>>6, uint64(1)<<(uint(v)&63)
		pend := b.pendMask[w]&bit != 0
		got := b.readyMask[w]&bit != 0 || (b.pendCycle != now && pend)
		if want := b.headArrived[v] < now; got != want || pend != (b.headArrived[v] == b.pendCycle) {
			//vichar:alloc error construction on the audit mismatch path
			return fmt.Errorf("core: readyMask bit %d is %v (pending: %v, since cycle %d), head stamp says %v (stamp %d, now %d)", v, got, pend, b.pendCycle, want, b.headArrived[v], now)
		}
	}
	return nil
}

// Len returns the number of flits the VC currently owns.
func (b *UBS) Len(vc int) int { return b.table.Len(vc) }

// Occupied returns the number of slots in use.
func (b *UBS) Occupied() int { return len(b.slots) - b.tracker.Free() }

// InUseVCs returns the number of VCs holding at least one flit.
func (b *UBS) InUseVCs() int { return b.table.ActiveRows() }

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
