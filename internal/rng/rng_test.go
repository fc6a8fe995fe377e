package rng

import (
	"math"
	"math/rand"
	"testing"

	"vichar/internal/snap"
)

// TestSequenceMatchesMathRand pins the generator's contract with the
// golden fixture wall: a Stream must produce exactly the sequence of
// rand.New(rand.NewSource(seed)), math/rand being the oracle. The seeds
// cover every branch of seed normalisation (zero, negatives, multiples
// of the modulus, the int64 extremes) plus a thousand drawn ones; each
// runs past two register lengths, so every word seeding wrote is read
// and then overwritten; the method mix covers Float64, both Intn paths
// (31-bit masked and rejected, 63-bit above 2³¹) and Int63n. It also
// checks the seeding power table against a serial walk of the Lehmer
// recurrence.
func TestSequenceMatchesMathRand(t *testing.T) {
	x := uint64(1)
	for k, p := range powers {
		if p != x {
			t.Fatalf("powers[%d] = %d, serial walk %d", k, p, x)
		}
		x = x * lehmerA % lehmerM
	}

	seeds := []int64{0, 1, -1, lehmerM, -lehmerM, 2 * lehmerM, 89482311, math.MinInt64, math.MaxInt64, 42, 1_000_003}
	pick := rand.New(rand.NewSource(2024))
	for range 1000 {
		seeds = append(seeds, pick.Int63()-pick.Int63())
	}
	const draws = 2*regLen + 50
	for _, seed := range seeds {
		s := New(seed)
		ref := rand.New(rand.NewSource(seed))
		for i := 0; i < draws; i++ {
			var got, want any
			switch i % 8 {
			case 0:
				got, want = s.Float64(), ref.Float64()
			case 1:
				got, want = s.Intn(97), ref.Intn(97)
			case 2:
				got, want = s.Intn(64), ref.Intn(64)
			case 3: // 31-bit path, about half of all draws rejected
				got, want = s.Intn(1<<30+1), ref.Intn(1<<30+1)
			case 4: // above 2³¹: the Int63n path, a quarter rejected
				got, want = s.Intn(3<<61), ref.Intn(3<<61)
			case 5:
				got, want = s.Int63n(1_000_003), ref.Int63n(1_000_003)
			case 6:
				got, want = s.Int63n(1<<40), ref.Int63n(1<<40)
			case 7: // about half rejected
				got, want = s.Int63n(1<<62+1), ref.Int63n(1<<62+1)
			}
			if got != want {
				t.Fatalf("seed %d draw %d (method %d): %v != %v", seed, i, i%8, got, want)
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
