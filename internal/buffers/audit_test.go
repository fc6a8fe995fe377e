package buffers

import (
	"strings"
	"testing"

	"vichar/internal/flit"
)

// fill writes packet p's flits into b on the given VC at cycle now,
// failing the test on any buffer error.
func fill(t *testing.T, b *Queues, p *flit.Packet, vc int, now int64) {
	t.Helper()
	for _, f := range flit.MakeFlits(p) {
		f.VC = vc
		if err := b.Write(f, now); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAuditClean exercises a legal write/read/drain sequence on
// ViChaR's buffer: the audit must stay silent at every intermediate
// state.
func TestAuditClean(t *testing.T) {
	b := NewViChaR(8, 8)
	if err := b.Audit(true); err != nil {
		t.Fatalf("empty buffer: %v", err)
	}
	fill(t, b, &flit.Packet{ID: 1, Size: 3}, 2, 10)
	fill(t, b, &flit.Packet{ID: 2, Size: 2}, 5, 10)
	if err := b.Audit(true); err != nil {
		t.Fatalf("after writes: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := b.Pop(2, 11+int64(i)); err != nil {
			t.Fatal(err)
		}
		if err := b.Audit(true); err != nil {
			t.Fatalf("after pop %d: %v", i, err)
		}
	}
	if got := b.Occupied(); got != 2 {
		t.Fatalf("occupied = %d, want 2", got)
	}
}

// TestAuditOnePacketPerVC plants a second packet's flit in an occupied
// VC — legal at the buffer layer, which does not know about tokens — and
// demands the audit flag it when the one-packet rule is asked for, and
// only then.
func TestAuditOnePacketPerVC(t *testing.T) {
	b := NewViChaR(8, 8)
	fill(t, b, &flit.Packet{ID: 1, Size: 2}, 3, 10)
	fill(t, b, &flit.Packet{ID: 2, Size: 1}, 3, 10)
	if err := b.Audit(true); err == nil || !strings.Contains(err.Error(), "one-packet-per-VC") {
		t.Fatalf("want one-packet-per-VC violation, got %v", err)
	}
	if err := b.Audit(false); err != nil {
		t.Fatalf("two whole packets in wormhole order, without the one-packet rule: %v", err)
	}
}

// TestAuditWormholeOrder writes one packet's flits out of order: the
// queue is no longer in wormhole order.
func TestAuditWormholeOrder(t *testing.T) {
	b := NewViChaR(8, 8)
	fs := flit.MakeFlits(&flit.Packet{ID: 7, Size: 3})
	for _, i := range []int{1, 0, 2} {
		fs[i].VC = 0
		if err := b.Write(fs[i], 10); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Audit(true); err == nil || !strings.Contains(err.Error(), "order broken") {
		t.Fatalf("want flit-order violation, got %v", err)
	}
}

// TestAuditPlantedViolations corrupts a loaded pool one way per check
// and demands the audit name it. The pool: eight slots, queue 0 holding
// a three-flit packet, queue 1 a one-flit one, four slots free.
func TestAuditPlantedViolations(t *testing.T) {
	for name, c := range map[string]struct {
		plant func(b *Queues)
		want  string
	}{
		"slot linked twice": {func(b *Queues) {
			b.head[1] = b.head[0] // queue 1 now starts in queue 0's chain
		}, "linked twice"},
		"queued slot also free": {func(b *Queues) {
			b.free = b.tail[0] // the free chain starts in a queue
		}, "linked twice"},
		"slot leaked": {func(b *Queues) {
			b.free = b.next[b.free] // drop the free chain's first slot
		}, "leaked"},
		"free slot holds a flit": {func(b *Queues) {
			b.slots[b.free] = b.slots[b.head[1]]
		}, "free slot"},
		"link outside the pool": {func(b *Queues) {
			b.next[b.head[0]] = 8
		}, "outside the pool"},
		"queued slot empty": {func(b *Queues) {
			b.slots[b.tail[0]] = nil
		}, "empty slot"},
		"queue beyond its depth": {func(b *Queues) {
			b.depth = 2
		}, "beyond its depth"},
		"flit of another VC": {func(b *Queues) {
			b.slots[b.head[1]].VC = 0
		}, "sits in queue 1"},
		"occupancy register": {func(b *Queues) {
			b.occ++
		}, "occupancy register"},
	} {
		t.Run(name, func(t *testing.T) {
			b := NewViChaR(4, 8)
			fill(t, b, &flit.Packet{ID: 1, Size: 3}, 0, 1)
			fill(t, b, &flit.Packet{ID: 2, Size: 1}, 1, 1)
			if err := b.Audit(true); err != nil {
				t.Fatalf("before planting: %v", err)
			}
			c.plant(b)
			if err := b.Audit(true); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("audit says %v, want a violation naming %q", err, c.want)
			}
		})
	}
}
