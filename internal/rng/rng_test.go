package rng

import (
	"math"
	"testing"

	"vichar/internal/snap"
)

// TestKnownAnswer pins the stream to the reference SplitMix64: the
// first outputs of splitmix64.c (Vigna) seeded with 1234567.
func TestKnownAnswer(t *testing.T) {
	want := []uint64{
		6457827717110365317,
		3203168211198807973,
		9817491932198370423,
		4593380528125082431,
		16408922859458223821,
	}
	s := New(1234567)
	for i, w := range want {
		if got := s.next(); got != w {
			t.Fatalf("draw %d = %d, want %d", i, got, w)
		}
	}
}

// TestIntnUniform is a χ² goodness-of-fit test of Intn(97), a bound
// that is not a power of two, over several seeds.
func TestIntnUniform(t *testing.T) {
	const n, draws = 97, 97 * 2000
	const bound = 144.6 // upper 0.1 % point of χ² with 96 degrees of freedom
	for _, seed := range []int64{0, 1, -1, 42, math.MaxInt64} {
		s := New(seed)
		counts := make([]float64, n)
		for range draws {
			counts[s.Intn(n)]++
		}
		const e = draws / n
		var x float64
		for _, c := range counts {
			x += (c - e) * (c - e) / e
		}
		if x > bound {
			t.Errorf("seed %d: χ² = %.1f over %d bins, above the 0.1 %% bound %.1f", seed, x, n, bound)
		}
	}
}

// TestIntnRange covers bounds whose rejection zone is about half of
// all 63-bit draws, and powers of two, where there is none.
func TestIntnRange(t *testing.T) {
	s := New(7)
	for _, n := range []int{1, 64, 1<<62 + 1, 3 << 61} {
		for range 1000 {
			if v := s.Intn(n); v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d", n, v)
			}
		}
	}
}

// TestRestoreFastForward checks the checkpoint contract: a stream's
// State, loaded into a fresh stream of the same seed, yields one whose
// future output is identical to the original's, in O(1) even at a
// count near the bound; a count above the bound, or a stream already
// past the saved position, refuses it.
func TestRestoreFastForward(t *testing.T) {
	const now = 50_000
	bound := uint64(maxDrawsPerCycle * (now + 1))
	save := func(s *Stream, at int64) []byte {
		blob, err := snap.Save(func(c *snap.Codec) { s.State(c, at) })
		if err != nil {
			t.Fatalf("save: %v", err)
		}
		return blob
	}
	load := func(blob []byte, into *Stream) error {
		c, err := snap.Open(blob)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		into.State(c, now)
		return c.Finish()
	}

	drawn := New(99)
	for range 1234 {
		drawn.Float64()
		drawn.Intn(3)
	}
	near := New(99)
	near.draws = bound - 3
	for _, s := range []*Stream{drawn, near} {
		blob := save(s, now)
		r := New(99)
		if err := load(blob, r); err != nil {
			t.Fatalf("load at draw %d: %v", s.Draws(), err)
		}
		if r.Draws() != s.Draws() {
			t.Fatalf("restored draw count %d, want %d", r.Draws(), s.Draws())
		}
		for i := range 3 {
			if got, want := r.Float64(), s.Float64(); got != want {
				t.Fatalf("draw %d after restore at %d: %v != %v", i, s.Draws(), got, want)
			}
		}
		if err := load(blob, r); err == nil {
			t.Fatalf("a stream at draw %d accepted a snapshot taken at draw %d", r.Draws(), r.Draws()-3)
		}
	}

	// near now sits exactly at the bound; one more draw exceeds it,
	// though a cycle later it is a count a stream can have reached.
	near.next()
	if err := load(save(near, now+1), New(99)); err == nil {
		t.Fatalf("a draw count of %d at cycle %d (bound %d) loaded", near.Draws(), now, bound)
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
		t.Fatalf("Float64 consumed %d draws, want 1", s.Draws())
	}
	before := s.Draws()
	s.Intn(10)
	if s.Draws() <= before {
		t.Fatal("Intn did not advance the draw counter")
	}
	s.Init(5)
	if s.Draws() != 0 {
		t.Fatalf("re-seeded stream has %d draws", s.Draws())
	}
}
