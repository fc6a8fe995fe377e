package core

import (
	"fmt"

	"vichar/internal/flit"
	"vichar/internal/snap"
)

// This file implements the checkpoint half of ViChaR's control
// structures. Everything here loads *in place*: the slot array,
// tracker bitmaps and control-table links are arena-backed and
// aliased by live pointers, so restore copies values into the
// existing arrays rather than replacing them.

// save writes the tracker's bitmap and free count.
func (t *Tracker) save(w *snap.Writer) {
	w.U64s(t.words)
	w.Int(t.free)
}

// load restores a tracker of identical size in place.
func (t *Tracker) load(r *snap.Reader) error {
	r.U64sInto(t.words)
	free := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if free < 0 || free > t.n {
		return fmt.Errorf("core: snapshot tracker free count %d outside [0,%d]", free, t.n)
	}
	t.free = free
	return nil
}

// save writes the control table as its rows: the per-row counts, then
// each row's slot IDs in FIFO order. Successor links of free slots
// are dead state and do not travel.
func (t *Table) save(w *snap.Writer) {
	w.I16s(t.count)
	for vc, n := range t.count {
		slot := t.head[vc]
		for ; n > 0; n-- {
			w.I16(slot)
			slot = t.next[slot]
		}
	}
}

// load rebuilds a table of identical shape in place, refusing rows
// that overrun the slot pool or name a slot twice.
func (t *Table) load(r *snap.Reader) error {
	counts := make([]int16, len(t.count))
	r.I16sInto(counts)
	if err := r.Err(); err != nil {
		return err
	}
	for vc := range t.count {
		t.count[vc] = 0
	}
	t.active = 0
	linked := make([]bool, len(t.next))
	for vc, n := range counts {
		if n < 0 || int(n) > len(t.next) {
			return fmt.Errorf("core: snapshot table row %d holds %d slots of %d", vc, n, len(t.next))
		}
		for ; n > 0; n-- {
			slot := int(r.I16())
			if err := r.Err(); err != nil {
				return err
			}
			if slot < 0 || slot >= len(t.next) || linked[slot] {
				return fmt.Errorf("core: snapshot table row %d names slot %d (out of range or already linked)", vc, slot)
			}
			linked[slot] = true
			t.Append(vc, slot)
		}
	}
	return nil
}

// SaveState serializes the Token Dispenser's availability bitmaps.
func (d *Dispenser) SaveState(w *snap.Writer) {
	w.Section("dispenser")
	d.normal.save(w)
	w.Bool(d.hasEscape)
	if d.hasEscape {
		d.escape.save(w)
	}
}

// LoadState restores a dispenser constructed with the same token
// shape.
func (d *Dispenser) LoadState(r *snap.Reader) error {
	if err := r.Section("dispenser"); err != nil {
		return err
	}
	if err := d.normal.load(r); err != nil {
		return err
	}
	if has := r.Bool(); has != d.hasEscape {
		return fmt.Errorf("core: snapshot dispenser escape set %v, constructed %v", has, d.hasEscape)
	}
	if d.hasEscape {
		if err := d.escape.load(r); err != nil {
			return err
		}
	}
	return r.Err()
}

// ForEachFlit calls fn for every flit stored in the unified buffer.
func (b *UBS) ForEachFlit(fn func(*flit.Flit)) {
	for _, f := range b.slots {
		if f != nil {
			fn(f)
		}
	}
}

// SaveState serializes the unified buffer's mutable contents: slot
// occupancy (as flit references), arrival stamps, the readiness
// overlay, the Slot Availability Tracker and the VC Control Table.
func (b *UBS) SaveState(w *snap.Writer) {
	w.Section("ubs")
	w.Int(len(b.slots))
	for _, f := range b.slots {
		w.Flit(f)
	}
	w.I64s(b.arrived)
	w.I64s(b.headArrived)
	w.U64s(b.readyMask)
	w.U64s(b.pendMask)
	w.I64(b.pendCycle)
	b.tracker.save(w)
	b.table.save(w)
}

// LoadState restores contents saved by SaveState into a UBS
// constructed with the same slot and VC-row counts.
func (b *UBS) LoadState(r *snap.Reader, resolve snap.Resolver) error {
	if err := r.Section("ubs"); err != nil {
		return err
	}
	if n := r.Int(); n != len(b.slots) {
		return fmt.Errorf("core: snapshot has %d UBS slots, buffer has %d", n, len(b.slots))
	}
	for i := range b.slots {
		f, err := r.Flit(resolve)
		if err != nil {
			return err
		}
		b.slots[i] = f
	}
	r.I64sInto(b.arrived)
	r.I64sInto(b.headArrived)
	r.U64sInto(b.readyMask)
	r.U64sInto(b.pendMask)
	b.pendCycle = r.I64()
	if err := b.tracker.load(r); err != nil {
		return err
	}
	return b.table.load(r)
}
