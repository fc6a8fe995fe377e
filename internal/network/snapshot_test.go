package network

import (
	"bytes"
	"testing"

	"vichar/internal/config"
	"vichar/internal/snap"
)

// saveBytes serializes n's state for byte comparison.
func saveBytes(t *testing.T, n *Network) []byte {
	t.Helper()
	blob, err := snap.Save(n.State)
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	return blob
}

// roundTrip saves n into a fresh network of the same configuration
// and returns it, failing the test on any codec error.
func roundTrip(t *testing.T, n *Network, cfg *config.Config) *Network {
	t.Helper()
	c, err := snap.Open(saveBytes(t, n))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	n2 := New(cfg)
	n2.State(c)
	if err := c.Finish(); err != nil {
		t.Fatalf("load: %v", err)
	}
	return n2
}

// heldFlits counts flits parked in retransmission buffers across all
// links.
func heldFlits(n *Network) int {
	held := 0
	for i := range n.flitSlab {
		held += n.flitSlab[i].faults.Held()
	}
	return held
}

// TestSnapshotMidRetransmissionHold cuts a checkpoint at a cycle
// where at least one flit sits in a link's retransmission buffer
// waiting for its retry; the restored network must carry the hold
// (same count, same fault counters) and evolve bit-identically —
// every subsequent per-cycle snapshot matches the original's byte for
// byte until both drain.
func TestSnapshotMidRetransmissionHold(t *testing.T) {
	cfg := faultBase()
	cfg.Audit = false
	cfg.Faults = config.FaultsConfig{
		Seed:            3,
		DropRate:        0.05,
		CorruptRate:     0.03,
		RetransmitDelay: 6,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	n := New(&cfg)

	// Step until a retransmission hold is live (the 8% fault rate
	// makes this a matter of a few dozen cycles).
	foundAt := int64(-1)
	for c := 0; c < 2000; c++ {
		n.Step()
		if heldFlits(n) > 0 {
			foundAt = n.Now()
			break
		}
	}
	if foundAt < 0 {
		t.Fatalf("no retransmission hold materialized in 2000 cycles")
	}

	n2 := roundTrip(t, n, &cfg)
	if got, want := heldFlits(n2), heldFlits(n); got != want {
		t.Fatalf("restored network holds %d flits, original %d", got, want)
	}

	// Lockstep: the two networks must stay byte-identical through the
	// hold's release, the retry (which may itself fault), and beyond.
	for c := 0; c < 200; c++ {
		n.Step()
		n2.Step()
		if a, b := saveBytes(t, n), saveBytes(t, n2); !bytes.Equal(a, b) {
			t.Fatalf("states diverge %d cycles after a mid-hold restore (cut at cycle %d)", c+1, foundAt)
		}
	}
}

// TestSnapshotRejectsMidCycleState documents the between-Steps
// contract: a save refuses when ejection staging is live.
func TestSnapshotRejectsMidCycleState(t *testing.T) {
	cfg := faultBase()
	cfg.Audit = false
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	n := New(&cfg)
	for c := 0; c < 32; c++ {
		n.Step()
	}
	n.pendingEject[0] = append(n.pendingEject[0], nil)
	if _, err := snap.Save(n.State); err == nil {
		t.Fatalf("save accepted mid-cycle state with staged ejections")
	}
	n.pendingEject[0] = n.pendingEject[0][:0]
	saveBytes(t, n)
}
