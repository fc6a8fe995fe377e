package metrics

import (
	"fmt"

	"vichar/internal/snap"
)

// This file implements the checkpoint half of the observability
// layer. Series descriptors re-register at construction time in the
// same order on restore, and counter values are derived state — the
// owners of the counters serialize them, and the network re-stores
// the view at the end of its LoadState — so only the sampled gauges,
// each recorder's undrained events and the tracer's ring travel.
// Staged events are captured as-is — draining them early would change
// the drain interleaving and break the resumed run's byte-exact event
// stream.

// saveEvent writes one flit-lifecycle event.
func saveEvent(w *snap.Writer, e Event) {
	w.U64(e.Seq)
	w.I64(e.Cycle)
	w.U8(uint8(e.Kind))
	w.U64(e.Packet)
	w.Int(e.Flit)
	w.Int(e.Node)
	w.Int(e.Port)
	w.Int(e.VC)
}

// loadEvent reads one flit-lifecycle event.
func loadEvent(r *snap.Reader) Event {
	return Event{
		Seq:    r.U64(),
		Cycle:  r.I64(),
		Kind:   EventKind(r.U8()),
		Packet: r.U64(),
		Flit:   r.Int(),
		Node:   r.Int(),
		Port:   r.Int(),
		VC:     r.Int(),
	}
}

// SaveState serializes the registry's gauge values. Safe against a
// concurrent exporter scrape.
func (r *Registry) SaveState(w *snap.Writer) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	w.Section("registry")
	w.F64s(r.gvals)
}

// LoadState restores values saved by SaveState into a registry with
// the same series registered in the same order.
func (r *Registry) LoadState(rd *snap.Reader) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := rd.Section("registry"); err != nil {
		return err
	}
	rd.F64sInto(r.gvals)
	return rd.Err()
}

// SaveState serializes the recorder's undrained events.
func (rec *Recorder) SaveState(w *snap.Writer) {
	w.Section("recorder")
	w.Int(len(rec.events))
	for _, e := range rec.events {
		saveEvent(w, e)
	}
}

// LoadState restores staged events saved by SaveState.
func (rec *Recorder) LoadState(r *snap.Reader) error {
	if err := r.Section("recorder"); err != nil {
		return err
	}
	n := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if n < 0 {
		return fmt.Errorf("metrics: negative staged-event count %d in snapshot", n)
	}
	rec.events = rec.events[:0]
	for i := 0; i < n; i++ {
		rec.events = append(rec.events, loadEvent(r))
		if r.Err() != nil {
			return r.Err()
		}
	}
	return r.Err()
}

// SaveState serializes the tracer's ring, total-event counter and
// eviction count.
func (t *Tracer) SaveState(w *snap.Writer) {
	t.reg.mu.RLock()
	defer t.reg.mu.RUnlock()
	w.Section("tracer")
	w.U64(t.next)
	w.U64(t.dropped)
	w.Int(len(t.buf))
	for _, e := range t.buf {
		saveEvent(w, e)
	}
}

// LoadState restores a ring saved by SaveState into a tracer of the
// same capacity.
func (t *Tracer) LoadState(r *snap.Reader) error {
	t.reg.mu.Lock()
	defer t.reg.mu.Unlock()
	if err := r.Section("tracer"); err != nil {
		return err
	}
	t.next = r.U64()
	t.dropped = r.U64()
	n := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if n < 0 || n > t.cap {
		return fmt.Errorf("metrics: snapshot ring holds %d events, tracer capacity is %d", n, t.cap)
	}
	t.buf = t.ring()[:0]
	for i := 0; i < n; i++ {
		t.buf = append(t.buf, loadEvent(r))
		if r.Err() != nil {
			return r.Err()
		}
	}
	return r.Err()
}
