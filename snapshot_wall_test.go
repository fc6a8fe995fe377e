package vichar_test

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"vichar"
)

// wallEntry pins one Snapshot() blob: its length and SHA-256.
type wallEntry struct {
	Len    int    `json:"len"`
	SHA256 string `json:"sha256"`
}

// wallCuts are the two cycles each wall configuration is cut at: one
// inside warm-up, one well into the measurement window.
var wallCuts = []int64{60, 180}

// wallConfigs is the byte-identity matrix: every buffer organization
// under each feature that adds or reshapes a snapshot section.
func wallConfigs() map[string]vichar.Config {
	variants := []struct {
		name string
		mut  func(vichar.Config) vichar.Config
	}{
		{"mesh", func(c vichar.Config) vichar.Config { return c }},
		{"torus-adaptive", func(c vichar.Config) vichar.Config {
			c.Torus = true
			c.Routing = vichar.MinimalAdaptive
			c.EscapeVCs = 1
			c.DeadlockThreshold = 16
			return c
		}},
		{"workers2", func(c vichar.Config) vichar.Config { c.Workers = 2; return c }},
		{"faults-metrics-tracer", func(c vichar.Config) vichar.Config {
			c = withFaults(c)
			c.Metrics = true
			c.TraceEvents = 4096
			return c
		}},
		{"txn", func(c vichar.Config) vichar.Config {
			c.Txn = vichar.Txn{
				Enabled:    true,
				Rate:       0.04,
				ReadFrac:   0.7,
				WriteFrac:  0.25,
				AtomicFrac: 0.05,
				PostedFrac: 0.5,
				MemEdge:    true,
			}
			return c
		}},
		{"varsize", func(c vichar.Config) vichar.Config {
			c.PacketSizeMax = 9
			c.Traffic = vichar.SelfSimilar
			return c
		}},
	}
	out := make(map[string]vichar.Config)
	for _, arch := range []vichar.BufferArch{vichar.Generic, vichar.ViChaR, vichar.DAMQ, vichar.FCCB} {
		for _, v := range variants {
			out[fmt.Sprintf("%v-%s", arch, v.name)] = v.mut(snapCfg(arch))
		}
	}
	return out
}

// retxHoldConfig makes faults frequent and retransmissions slow, so a
// cut almost anywhere lands with flits parked in retransmission
// buffers; the wall asserts that the pinned cut does.
func retxHoldConfig() vichar.Config {
	cfg := snapCfg(vichar.ViChaR)
	cfg.Metrics = true
	cfg.Faults = vichar.Faults{Seed: 3, DropRate: 0.05, CorruptRate: 0.03, RetransmitDelay: 6}
	return cfg
}

// snapshotAt builds cfg, steps it to cycle c and returns the blob with
// the simulator still open.
func snapshotAt(t *testing.T, cfg vichar.Config, c int64) (*vichar.Simulator, []byte) {
	t.Helper()
	s, err := vichar.NewSimulator(cfg)
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	stepTo(t, s, c)
	blob, err := s.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot at cycle %d: %v", c, err)
	}
	return s, blob
}

// TestSnapshotBytesWall pins the snapshot format byte for byte: the
// length and SHA-256 of Snapshot() over the matrix above, against
// values cut by the PARENT commit's serializer. To re-cut after an
// intended format change (with a snap.Version bump), clone the trusted
// commit under /root/scratch, copy this file there, run
//
//	go test . -run TestSnapshotBytesWall -update
//
// and copy testdata/snapshot_sha256.json back; it must then pass here
// without the flag.
func TestSnapshotBytesWall(t *testing.T) {
	got := make(map[string]wallEntry)
	pin := func(name string, blob []byte) {
		got[name] = wallEntry{Len: len(blob), SHA256: fmt.Sprintf("%x", sha256.Sum256(blob))}
	}
	for name, cfg := range wallConfigs() {
		for _, c := range wallCuts {
			s, blob := snapshotAt(t, cfg, c)
			s.Close()
			pin(fmt.Sprintf("%s@%d", name, c), blob)
		}
	}

	s, blob := snapshotAt(t, retxHoldConfig(), 120)
	s.FlushMetrics()
	m, _ := s.MetricsSnapshot()
	s.Close()
	faulted := m.Sum("vichar_link_flits_dropped_total") + m.Sum("vichar_link_flits_corrupted_total")
	if resent := m.Sum("vichar_link_retransmits_total"); faulted <= resent {
		t.Fatalf("retx-hold cut holds no flit: %v faulted, %v re-sent", faulted, resent)
	}
	pin("ViC-retx-hold@120", blob)

	path := filepath.Join("testdata", "snapshot_sha256.json")
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]wallEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(got) != len(want) {
		t.Errorf("wall has %d entries, matrix produces %d", len(want), len(got))
	}
	for name, g := range got {
		if w, ok := want[name]; !ok || w != g {
			t.Errorf("%s: snapshot is %d bytes sha256 %s, wall says %d bytes sha256 %s", name, g.Len, g.SHA256, w.Len, w.SHA256)
		}
	}
}
