package rng

import (
	"math/rand"
	"testing"

	"vichar/internal/snap"
)

// TestSequenceMatchesMathRand pins the shim's contract with the golden
// fixture wall: a Stream must produce exactly the sequence of
// rand.New(rand.NewSource(seed)) across the method mix the traffic
// generator uses.
func TestSequenceMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{1, 42, -7, 1_000_003} {
		s := New(seed)
		ref := rand.New(rand.NewSource(seed))
		for i := 0; i < 5000; i++ {
			switch i % 3 {
			case 0:
				if got, want := s.Float64(), ref.Float64(); got != want {
					t.Fatalf("seed %d draw %d: Float64 %v != %v", seed, i, got, want)
				}
			case 1:
				if got, want := s.Intn(97), ref.Intn(97); got != want {
					t.Fatalf("seed %d draw %d: Intn %v != %v", seed, i, got, want)
				}
			case 2:
				if got, want := s.Int63n(1_000_003), ref.Int63n(1_000_003); got != want {
					t.Fatalf("seed %d draw %d: Int63n %v != %v", seed, i, got, want)
				}
			}
		}
	}
}

// TestRestoreFastForward checks the checkpoint contract: a stream's
// State, loaded into a fresh stream of the same seed, yields one whose
// future output is identical to the original's; a stream already past
// the saved position refuses it.
func TestRestoreFastForward(t *testing.T) {
	s := New(99)
	// Consume a mixed prefix; Int63n's rejection sampling makes the
	// draw count a source-level, not call-level, quantity.
	for i := 0; i < 1234; i++ {
		s.Float64()
		s.Int63n(3)
		s.Intn(1 << 30)
	}
	draws := s.Draws()
	blob, err := snap.Save(func(c *snap.Codec) {
		s.State(c, 1234)
	})
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	load := func(into *Stream) error {
		c, err := snap.Open(blob)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		into.State(c, 1234)
		return c.Finish()
	}
	r := New(99)
	if err := load(r); err != nil {
		t.Fatalf("load: %v", err)
	}
	if r.Draws() != draws {
		t.Fatalf("restored draw count %d, want %d", r.Draws(), draws)
	}
	for i := 0; i < 5000; i++ {
		if got, want := r.Float64(), s.Float64(); got != want {
			t.Fatalf("draw %d after restore: %v != %v", i, got, want)
		}
		if got, want := r.Int63n(41), s.Int63n(41); got != want {
			t.Fatalf("draw %d after restore: Int63n %v != %v", i, got, want)
		}
	}
	if r.Draws() != s.Draws() {
		t.Fatalf("draw counters diverged: %d != %d", r.Draws(), s.Draws())
	}
	if err := load(r); err == nil {
		t.Fatalf("a stream at draw %d accepted a snapshot taken at draw %d", r.Draws(), draws)
	}
}

// TestDrawsCountsSourceSteps verifies the counter advances at least
// once per API call and restores to zero on a fresh stream.
func TestDrawsCountsSourceSteps(t *testing.T) {
	s := New(5)
	if s.Draws() != 0 {
		t.Fatalf("fresh stream has %d draws", s.Draws())
	}
	s.Float64()
	if s.Draws() != 1 {
		t.Fatalf("Float64 consumed %d source steps, want 1", s.Draws())
	}
	before := s.Draws()
	s.Intn(10)
	if s.Draws() <= before {
		t.Fatal("Intn did not advance the draw counter")
	}
}
