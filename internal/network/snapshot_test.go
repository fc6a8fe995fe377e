package network

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"slices"
	"strings"
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
// contract: a save refuses while any shard's wake list is non-empty,
// and the refusal check writes nothing, so the bytes once the list is
// empty again are the bytes of the save before. (A shard's staged
// ejections are legitimately non-empty between Steps: they are derived
// from the ejection links, not saved, and restaged by a load.)
func TestSnapshotRejectsMidCycleState(t *testing.T) {
	cfg := faultBase()
	cfg.Audit = false
	cfg.Workers = 2
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	n := New(&cfg)
	defer n.Close()
	for c := 0; c < 32; c++ {
		n.Step()
	}
	want := saveBytes(t, n)
	if len(n.lists) != 2 {
		t.Fatalf("Workers=2 built %d shard lists, want 2", len(n.lists))
	}
	for s := range n.lists {
		l := &n.lists[s]
		l.wakes = append(l.wakes, linkTag(0, 0))
		if _, err := snap.Save(n.State); err == nil || !strings.Contains(err.Error(), "unmerged wakes") {
			t.Fatalf("shard %d: save with an unmerged wake: err %v, want the mid-cycle refusal", s, err)
		}
		l.wakes = l.wakes[:0]
		if got := saveBytes(t, n); !bytes.Equal(got, want) {
			t.Fatalf("shard %d: save after the lists emptied differs from the save before", s)
		}
	}
}

// TestSnapshotIndependentOfShardCount: the worklist tallies travel
// summed, so a blob cut at Workers=2 loads into networks of one and of
// four shards, each re-saves the same bytes, and all three run on
// byte-identical. Tallies that do not add up to every router in both
// phases of every cycle are refused.
func TestSnapshotIndependentOfShardCount(t *testing.T) {
	at := func(workers int) config.Config {
		cfg := faultBase()
		cfg.Workers = workers
		return cfg
	}
	cfg2 := at(2)
	n := New(&cfg2)
	defer n.Close()
	for c := 0; c < 120; c++ {
		n.Step()
	}
	blob := saveBytes(t, n)

	load := func(data []byte, workers int) (*Network, error) {
		cfg := at(workers)
		c, err := snap.Open(data)
		if err != nil {
			return nil, err
		}
		m := New(&cfg)
		m.State(c)
		return m, c.Finish()
	}
	nets := []*Network{n}
	for _, workers := range []int{1, 4} {
		m, err := load(blob, workers)
		if err != nil {
			t.Fatalf("Workers=%d: load: %v", workers, err)
		}
		defer m.Close()
		if got := saveBytes(t, m); !bytes.Equal(got, blob) {
			t.Fatalf("Workers=%d: re-save differs from the Workers=2 blob", workers)
		}
		if m.WorklistStats() != n.WorklistStats() {
			t.Fatalf("Workers=%d: tallies %+v, want %+v", workers, m.WorklistStats(), n.WorklistStats())
		}
		nets = append(nets, m)
	}
	for c := 0; c < 200; c++ {
		for _, m := range nets {
			m.Step()
		}
	}
	want := saveBytes(t, n)
	for i, m := range nets[1:] {
		if !bytes.Equal(saveBytes(t, m), want) {
			t.Fatalf("restored network %d diverged from the Workers=2 original", i)
		}
	}

	// The tallies follow the worklist section's two per-router flag
	// arrays, each a length and a flag per router; the first counts
	// compute ticks.
	var fields []snap.Field
	c, err := snap.Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	c.Record(&fields)
	m := New(&cfg2)
	defer m.Close()
	if m.State(c); c.Finish() != nil {
		t.Fatalf("re-load: %v", c.Err())
	}
	sec := slices.IndexFunc(fields, func(f snap.Field) bool { return f.Kind == snap.Section && f.Name == "worklist" })
	tally := fields[sec+1+2*(1+len(n.routers))]
	if tally.Val != m.WorklistStats().ComputeTicked {
		t.Fatalf("field %+v is not the compute-tick tally %d", tally, m.WorklistStats().ComputeTicked)
	}
	bad := tally.Splice(blob[:len(blob)-4], tally.Val+1)
	bad = binary.LittleEndian.AppendUint32(bad, crc32.ChecksumIEEE(bad))
	if _, err := load(bad, 1); err == nil || !strings.Contains(err.Error(), "worklist tall") {
		t.Errorf("a tally counting one too many: load err %v, want a worklist tally refusal", err)
	}
}
