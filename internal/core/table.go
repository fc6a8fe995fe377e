package core

import (
	"fmt"
	"math"

	"vichar/internal/soa"
)

// Table is the VC Control Table, "the central hub of ViChaR's
// operation" (paper §3.2.2): one row per virtual channel ID, each row
// holding, in arrival order, the slot IDs of the flits that VC
// currently owns in the unified buffer. Rows are NULLed (emptied) to
// mark free VCs; a VC's slots may be non-consecutive, which is what
// frees ViChaR from the contiguity constraints of static buffers.
//
// A slot is owned by at most one VC at a time, so the rows are linked
// lists threaded through one per-slot successor array: next[slot] is
// the slot holding the VC's following flit, and head/tail/count[vc]
// are the row registers. That is slots + 3*vcs entries at the width
// the paper gives its slot pointers (log2(vk) bits; int16 here, under
// config.MaxBufferSlots) where a ring per row would need vcs*slots.
// Append, Head and PopHead are O(1), and a port's whole table fits two
// cache lines at 16 slots.
//
// The Arriving Flit Pointer of a VC is its tail register; the
// Departing Flit Pointer is its head register.
type Table struct {
	next  []int16 // per slot: successor within its row; dead for a row's tail and for free slots
	head  []int16 // per row: slot of the departing-flit pointer (valid while count > 0)
	tail  []int16 // per row: slot of the arriving-flit pointer (valid while count > 0)
	count []int16 // per row: entries held
}

// NewTable returns a control table with vcs rows over vcs slots (the
// paper sizes it at vk rows so every slot can be its own VC; the UBS
// passes its own slot count via init).
func NewTable(vcs int) *Table {
	t := &Table{}
	t.init(vcs, vcs, nil)
	return t
}

// init readies a (possibly embedded) table of vcs rows over slots
// slot IDs, drawing storage from the arena when one is supplied.
func (t *Table) init(vcs, slots int, a *soa.Arena) {
	if vcs < 1 {
		panic(fmt.Sprintf("core: control table needs at least one row, got %d", vcs))
	}
	if slots < 1 || slots > math.MaxInt16 {
		panic(fmt.Sprintf("core: control table slot count must be in [1,%d], got %d", math.MaxInt16, slots))
	}
	t.next = a.TakeInt16s(slots)
	t.head = a.TakeInt16s(vcs)
	t.tail = a.TakeInt16s(vcs)
	t.count = a.TakeInt16s(vcs)
}

// Rows returns the number of VC rows.
func (t *Table) Rows() int { return len(t.head) }

// Len returns the number of slots row vc currently holds.
func (t *Table) Len(vc int) int {
	if vc < 0 || vc >= len(t.head) {
		return 0
	}
	return int(t.count[vc])
}

// Append records that the newest flit of VC vc was steered into slot.
// The slot must not already be linked into a row — the Slot
// Availability Tracker hands each slot out once — or the row it sits
// in is silently cut short; the invariant audit cross-checks this.
func (t *Table) Append(vc, slot int) {
	if vc < 0 || vc >= len(t.head) {
		//vichar:invariant the UBS validates VC ids before steering a flit; an out-of-range row is bookkeeping corruption
		panic(fmt.Sprintf("core: control table append to row %d of %d", vc, len(t.head)))
	}
	if slot < 0 || slot >= len(t.next) {
		//vichar:invariant slot ids come from the Slot Availability Tracker, which spans exactly the table's slots
		panic(fmt.Sprintf("core: control table append of slot %d outside %d", slot, len(t.next)))
	}
	if t.count[vc] == 0 {
		t.head[vc] = int16(slot)
	} else {
		t.next[t.tail[vc]] = int16(slot)
	}
	t.tail[vc] = int16(slot)
	t.count[vc]++
}

// Head returns the slot ID of VC vc's departing-flit pointer (its
// first non-NULL entry), or -1 when the row is empty.
func (t *Table) Head(vc int) int {
	if vc < 0 || vc >= len(t.head) || t.count[vc] == 0 {
		return -1
	}
	return int(t.head[vc])
}

// PopHead NULLs out VC vc's first entry (its flit departed) and
// returns the freed slot ID. It panics on an empty row — the router
// must not dequeue from an empty VC.
func (t *Table) PopHead(vc int) int {
	if vc < 0 || vc >= len(t.head) || t.count[vc] == 0 {
		//vichar:invariant the router must not dequeue from an empty VC; Front gates every Pop
		panic(fmt.Sprintf("core: control table pop from empty row %d", vc))
	}
	h := t.head[vc]
	t.count[vc]--
	if t.count[vc] > 0 {
		t.head[vc] = t.next[h]
	}
	return int(h)
}

// Slots returns a copy of VC vc's slot list in FIFO order; intended
// for tests and diagnostics.
func (t *Table) Slots(vc int) []int {
	if vc < 0 || vc >= len(t.head) {
		return nil
	}
	//vichar:alloc diagnostic copy for tests and the invariant audit; not on the steady-state tick path
	out := make([]int, t.count[vc])
	slot := t.head[vc]
	for i := range out {
		out[i] = int(slot)
		slot = t.next[slot]
	}
	return out
}
