package core

import (
	"math/bits"

	"vichar/internal/flit"
	"vichar/internal/snap"
)

// This file is the checkpoint walk of ViChaR's control structures.
// Everything here loads *in place*: the slot array, tracker bitmaps
// and control-table links are arena-backed and aliased by live
// pointers, so restore writes values into the existing arrays rather
// than replacing them.

// State walks the tracker's bitmap and free count; the two must agree.
// Loading needs a tracker initialized over the same entry count.
func (t *Tracker) State(c *snap.Codec) {
	c.U64s(t.words)
	c.Int(&t.free)
	c.Range(t.free, 0, t.n, "core: tracker free count")
	set := 0
	for _, w := range t.words {
		set += bits.OnesCount64(w)
	}
	c.Mask(t.words, t.n, "core: tracker bitmap")
	if set != t.free {
		c.Failf("core: snapshot tracker bitmap marks %d of %d entries free, free count says %d", set, t.n, t.free)
	}
}

// state walks the control table as its rows: the per-row counts, then
// each row's slot IDs in FIFO order, through the links that hold them.
// Successor links of free slots are dead state and do not travel. A
// row that overruns the slot pool or names a slot twice is refused,
// and holds, when given, vets each (row, slot) pair against the slot's
// contents (rows come in order, each row's slots in FIFO order).
func (t *Table) state(c *snap.Codec, holds func(vc, slot int) bool) {
	c.I16s(t.count)
	linked := make([]bool, len(t.next))
	for vc, n := range t.count {
		c.Range(int(n), 0, len(t.next), "core: control-table row length")
		link := &t.head[vc]
		for ; n > 0 && c.Err() == nil; n-- {
			c.I16(link)
			slot := int(*link)
			if slot < 0 || slot >= len(t.next) || linked[slot] || (holds != nil && !holds(vc, slot)) {
				c.Failf("core: snapshot table row %d names slot %d (out of range, already linked, or not holding the next flit of that VC)", vc, slot)
				break
			}
			linked[slot] = true
			if c.Loading() {
				t.tail[vc] = *link
			}
			link = &t.next[slot]
		}
	}
}

// State walks the unified buffer's mutable contents: slot occupancy
// (as flit references, which carry their arrival stamps), the Slot
// Availability Tracker and the VC Control Table. The readiness stamps
// are derived from the rows' head flits and recomputed on load.
// Loading needs a UBS constructed with the same slot and VC-row
// counts.
func (b *UBS) State(c *snap.Codec) {
	c.Section("ubs")
	c.Expect(len(b.slots), "core: UBS slots")
	for i := range b.slots {
		c.Flit(&b.slots[i])
	}
	b.tracker.State(c)
	var prev *flit.Flit // the flit before this one in its row
	b.table.state(c, func(vc, slot int) bool {
		f := b.slots[slot]
		ok := f != nil && f.VC == vc && (prev == nil || prev.VC != vc || f.Follows(prev))
		prev = f
		return ok
	})
	if c.Loading() && c.Err() == nil {
		for vc := range b.readyAt {
			b.restamp(vc)
		}
	}
}
