package buffers

import (
	"fmt"

	"vichar/internal/flit"
	"vichar/internal/snap"
)

// This file implements the checkpoint half of each buffer
// organization: SaveState writes only mutable contents (flit
// references in FIFO order plus bookkeeping stamps); LoadState
// restores them into a buffer freshly constructed with the same
// shape, resolving flit references through the caller's resolver and
// reusing the existing queue backing arrays.

// ForEachFlit calls fn for every stored flit.
func (q *queues) ForEachFlit(fn func(*flit.Flit)) {
	for i := range q.qs {
		fq := &q.qs[i]
		for j := 0; j < fq.len(); j++ {
			fn(fq.at(j))
		}
	}
}

// saveFIFO writes q's live contents in FIFO order.
func saveFIFO(w *snap.Writer, q *fifo) {
	w.Int(q.len())
	for i := 0; i < q.len(); i++ {
		w.Flit(q.at(i))
	}
}

// loadFIFO rebuilds q's live contents from saveFIFO output,
// rewinding the ring to slot zero (head position is memory layout,
// not simulator state).
func loadFIFO(r *snap.Reader, q *fifo, resolve snap.Resolver) error {
	n := r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if n < 0 {
		return fmt.Errorf("buffers: negative FIFO length %d in snapshot", n)
	}
	for q.len() > 0 {
		q.pop()
	}
	q.head = 0
	for i := 0; i < n; i++ {
		f, err := r.Flit(resolve)
		if err != nil {
			return err
		}
		if f == nil {
			return fmt.Errorf("buffers: nil flit reference inside a FIFO")
		}
		q.push(f)
	}
	return r.Err()
}

// SaveState serializes the generic buffer's mutable contents.
func (b *Generic) SaveState(w *snap.Writer) {
	w.Section("generic")
	w.Int(len(b.qs))
	for i := range b.qs {
		saveFIFO(w, &b.qs[i])
	}
}

// LoadState restores contents saved by SaveState.
func (b *Generic) LoadState(r *snap.Reader, resolve snap.Resolver) error {
	if err := r.Section("generic"); err != nil {
		return err
	}
	if n := r.Int(); n != len(b.qs) {
		return fmt.Errorf("buffers: snapshot has %d generic queues, buffer has %d", n, len(b.qs))
	}
	b.occ = 0
	for i := range b.qs {
		if err := loadFIFO(r, &b.qs[i], resolve); err != nil {
			return err
		}
		if b.qs[i].len() > b.depth {
			return fmt.Errorf("buffers: snapshot overfills generic VC %d: %d > depth %d", i, b.qs[i].len(), b.depth)
		}
		b.occ += b.qs[i].len()
		b.restamp(i, 1, 0)
	}
	return r.Err()
}

// SaveState serializes the DAMQ's mutable contents, including the
// per-queue read-port busy stamps of its bookkeeping delay model.
func (b *DAMQ) SaveState(w *snap.Writer) {
	w.Section("damq")
	w.Int(len(b.qs))
	for i := range b.qs {
		saveFIFO(w, &b.qs[i])
	}
	w.I64s(b.readReadyAt)
}

// LoadState restores contents saved by SaveState.
func (b *DAMQ) LoadState(r *snap.Reader, resolve snap.Resolver) error {
	if err := r.Section("damq"); err != nil {
		return err
	}
	if n := r.Int(); n != len(b.qs) {
		return fmt.Errorf("buffers: snapshot has %d DAMQ queues, buffer has %d", n, len(b.qs))
	}
	b.occ = 0
	for i := range b.qs {
		if err := loadFIFO(r, &b.qs[i], resolve); err != nil {
			return err
		}
		b.occ += b.qs[i].len()
	}
	if b.occ > b.slots {
		return fmt.Errorf("buffers: snapshot overfills DAMQ pool: %d > %d slots", b.occ, b.slots)
	}
	r.I64sInto(b.readReadyAt)
	for i := range b.qs {
		b.restamp(i, b.lag(), b.readReadyAt[i])
	}
	return r.Err()
}

// SaveState serializes the FC-CB's mutable contents.
func (b *FCCB) SaveState(w *snap.Writer) {
	w.Section("fccb")
	w.Int(len(b.qs))
	for i := range b.qs {
		saveFIFO(w, &b.qs[i])
	}
}

// LoadState restores contents saved by SaveState.
func (b *FCCB) LoadState(r *snap.Reader, resolve snap.Resolver) error {
	if err := r.Section("fccb"); err != nil {
		return err
	}
	if n := r.Int(); n != len(b.qs) {
		return fmt.Errorf("buffers: snapshot has %d FC-CB queues, buffer has %d", n, len(b.qs))
	}
	b.occ = 0
	for i := range b.qs {
		if err := loadFIFO(r, &b.qs[i], resolve); err != nil {
			return err
		}
		b.occ += b.qs[i].len()
		b.restamp(i, 1, 0)
	}
	if b.occ > b.slots {
		return fmt.Errorf("buffers: snapshot overfills FC-CB pool: %d > %d slots", b.occ, b.slots)
	}
	return r.Err()
}
