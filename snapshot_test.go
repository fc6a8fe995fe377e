package vichar_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"

	"vichar"
)

// This file enforces the checkpoint/restore contract: a simulator
// restored from a snapshot taken at cycle C and run to completion is
// bit-identical to the simulator that ran straight through — results,
// per-packet latencies, counters, the final metrics registry and
// flit-event streams — for every architecture, with faults and
// metrics on, at several C including cuts landing mid-packet,
// in-process and across a process boundary.

// snapCfg is the matrix base: a small mesh with enough traffic that
// any cut past the first few cycles lands mid-packet.
func snapCfg(arch vichar.BufferArch) vichar.Config {
	cfg := vichar.DefaultConfig()
	cfg.Width, cfg.Height = 4, 4
	cfg.Arch = arch
	cfg.InjectionRate = 0.20
	cfg.WarmupPackets = 40
	cfg.MeasurePackets = 120
	cfg.MaxCycles = 20000
	cfg.Seed = 7
	cfg.SampleEvery = 16
	return cfg
}

// withFaults turns on rate-driven transient faults plus one scheduled
// stall so retransmission and stall state is exercised.
func withFaults(cfg vichar.Config) vichar.Config {
	cfg.Faults = vichar.Faults{
		Seed:        11,
		DropRate:    0.02,
		CorruptRate: 0.01,
		StallRate:   0.002,
		Events: []vichar.FaultEvent{
			{Kind: vichar.StallPort, Node: 5, Port: 1, Cycle: 60, Cycles: 12},
		},
	}
	return cfg
}

// runOutput is everything the bit-identical contract covers. metrics
// is the registry at the end of the run (zero with the layer off):
// every whole-run counter a snapshot must carry shows up there, so a
// counter left out of SaveState fails the wall even when Results'
// measurement window never sees it.
type runOutput struct {
	res     vichar.Results
	lats    []int64
	events  []vichar.FlitEvent
	metrics vichar.MetricsSnapshot
}

// finish runs s to completion and captures the contract surface.
func finish(s *vichar.Simulator) runOutput {
	defer s.Close()
	o := runOutput{res: s.Run(), lats: s.Latencies(), events: s.FlitEvents()}
	o.metrics, _ = s.MetricsSnapshot()
	return o
}

// digest hashes a run's output exactly: %#v prints float64s with the
// shortest round-tripping representation, so equal digests mean
// bit-equal values.
func (o runOutput) digest() string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%#v|%#v|%#v|%#v", o.res, o.lats, o.events, o.metrics)))
	return fmt.Sprintf("%x", h)
}

func compareRuns(t *testing.T, want, got runOutput, label string) {
	t.Helper()
	if !reflect.DeepEqual(want.res, got.res) {
		t.Errorf("%s: results diverge\nstraight: %+v\nresumed:  %+v", label, want.res, got.res)
	}
	if !reflect.DeepEqual(want.lats, got.lats) {
		t.Errorf("%s: per-packet latencies diverge (%d vs %d samples)", label, len(want.lats), len(got.lats))
	}
	if !reflect.DeepEqual(want.events, got.events) {
		t.Errorf("%s: flit-event streams diverge (%d vs %d events)", label, len(want.events), len(got.events))
	}
	if !reflect.DeepEqual(want.metrics, got.metrics) {
		t.Errorf("%s: final metrics registries diverge", label)
		for i, c := range want.metrics.Counters {
			if i < len(got.metrics.Counters) && got.metrics.Counters[i].Value != c.Value {
				t.Errorf("  %s{%s} = %d resumed, %d straight", c.Name, c.Labels, got.metrics.Counters[i].Value, c.Value)
			}
		}
	}
}

// stepTo advances s to cycle c.
func stepTo(t *testing.T, s *vichar.Simulator, c int64) {
	t.Helper()
	for s.Now() < c {
		s.Step()
	}
}

// checkResume asserts the bit-identical resume contract for cfg at
// three cuts spread across the run (all strictly before the
// straight-through run's final cycle, where the protocols align), and
// that restoring and immediately re-snapshotting reproduces the blob
// byte for byte. It returns whether any cut landed mid-packet.
func checkResume(t *testing.T, cfg vichar.Config) bool {
	t.Helper()
	base, err := vichar.NewSimulator(cfg)
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	want := finish(base)
	total := want.res.TotalCycles
	if total < 8 {
		t.Fatalf("straight-through run lasted only %d cycles; config too small to cut", total)
	}
	cuts := []int64{total / 5, total / 2, total * 3 / 4}
	midPacket := false
	prev := int64(-1)
	for _, c := range cuts {
		if c <= 0 || c == prev {
			continue
		}
		prev = c
		s, err := vichar.NewSimulator(cfg)
		if err != nil {
			t.Fatalf("NewSimulator: %v", err)
		}
		stepTo(t, s, c)
		if s.Created() > s.Ejected() {
			midPacket = true
		}
		blob, err := s.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot at cycle %d: %v", c, err)
		}
		s.Close()

		r, err := vichar.Restore(blob)
		if err != nil {
			t.Fatalf("Restore at cycle %d: %v", c, err)
		}
		if r.Now() != c {
			t.Fatalf("restored simulator at cycle %d, want %d", r.Now(), c)
		}
		again, err := r.Snapshot()
		if err != nil {
			t.Fatalf("re-snapshot at cycle %d: %v", c, err)
		}
		if !bytes.Equal(blob, again) {
			t.Errorf("cycle %d: snapshot of restored simulator differs from original blob", c)
		}
		compareRuns(t, want, finish(r), fmt.Sprintf("cut at cycle %d", c))
	}
	return midPacket
}

// TestSnapshotResumeBitIdentical is the headline enforcement: all
// four architectures, faults on, metrics and event tracing on, cuts
// at three cycles including mid-packet and mid-warmup ones — and the
// same matrix again with the NIU transaction layer running, so the
// engine's rng streams, pending tables, memory-controller queues and
// per-class NI streams all cross the snapshot boundary.
func TestSnapshotResumeBitIdentical(t *testing.T) {
	for _, arch := range []vichar.BufferArch{vichar.Generic, vichar.ViChaR, vichar.DAMQ, vichar.FCCB} {
		for _, txnOn := range []bool{false, true} {
			name := fmt.Sprint(arch)
			if txnOn {
				name += "-txn"
			}
			t.Run(name, func(t *testing.T) {
				cfg := withFaults(snapCfg(arch))
				cfg.Metrics = true
				cfg.TraceEvents = 4096
				if txnOn {
					cfg.Txn = vichar.Txn{
						Enabled:    true,
						Rate:       0.04,
						ReadFrac:   0.7,
						WriteFrac:  0.25,
						AtomicFrac: 0.05,
						PostedFrac: 0.5,
						MemEdge:    true,
					}
				}
				if !checkResume(t, cfg) {
					t.Fatalf("no cut landed mid-packet; test lost its teeth")
				}
			})
		}
	}
}

// TestSnapshotResumeMatrix sweeps the satellite matrix: each
// architecture under a torus topology, a multi-worker kernel, and an
// adaptive-routing escape configuration.
func TestSnapshotResumeMatrix(t *testing.T) {
	variants := []struct {
		name string
		mut  func(vichar.Config) vichar.Config
	}{
		{"torus", func(c vichar.Config) vichar.Config { c.Torus = true; return c }},
		{"workers", func(c vichar.Config) vichar.Config { c.Workers = 4; return c }},
		{"adaptive", func(c vichar.Config) vichar.Config {
			c.Routing = vichar.MinimalAdaptive
			c.EscapeVCs = 1
			c.DeadlockThreshold = 16
			return c
		}},
		{"selfsimilar", func(c vichar.Config) vichar.Config { c.Traffic = vichar.SelfSimilar; return c }},
	}
	for _, arch := range []vichar.BufferArch{vichar.Generic, vichar.ViChaR, vichar.DAMQ, vichar.FCCB} {
		for _, v := range variants {
			t.Run(fmt.Sprintf("%v-%s", arch, v.name), func(t *testing.T) {
				checkResume(t, v.mut(snapCfg(arch)))
			})
		}
	}
}

// TestRestoreWithOverrides branches a warmed snapshot onto a
// different injection rate and quota; the branch must adopt the
// overridden protocol and still complete deterministically.
func TestRestoreWithOverrides(t *testing.T) {
	cfg := snapCfg(vichar.ViChaR)
	s, err := vichar.NewSimulator(cfg)
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	stepTo(t, s, 100)
	blob, err := s.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	s.Close()

	rate := 0.05
	measure := 60
	branch := func() runOutput {
		r, err := vichar.RestoreWith(blob, vichar.Overrides{InjectionRate: &rate, MeasurePackets: &measure})
		if err != nil {
			t.Fatalf("RestoreWith: %v", err)
		}
		if got := r.Config().InjectionRate; got != rate {
			t.Fatalf("branch injection rate %v, want %v", got, rate)
		}
		return finish(r)
	}
	first, second := branch(), branch()
	compareRuns(t, first, second, "override branches")
	if first.res.InjectionRate != rate {
		t.Errorf("branch results report rate %v, want %v", first.res.InjectionRate, rate)
	}

	bad := -0.5
	if _, err := vichar.RestoreWith(blob, vichar.Overrides{InjectionRate: &bad}); err == nil {
		t.Fatalf("RestoreWith accepted a negative injection rate")
	}
}

// TestRunCheckpointed drives the periodic-checkpoint runner and
// resumes from its last emitted snapshot.
func TestRunCheckpointed(t *testing.T) {
	cfg := snapCfg(vichar.Generic)
	base, err := vichar.NewSimulator(cfg)
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	want := finish(base)

	s, err := vichar.NewSimulator(cfg)
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	var blobs [][]byte
	var cycles []int64
	res, err := s.RunCheckpointed(100, func(cycle int64, data []byte) error {
		cycles = append(cycles, cycle)
		blobs = append(blobs, data)
		return nil
	})
	s.Close()
	if err != nil {
		t.Fatalf("RunCheckpointed: %v", err)
	}
	if !reflect.DeepEqual(res, want.res) {
		t.Errorf("checkpointed run diverges from plain run")
	}
	if len(blobs) == 0 {
		t.Fatalf("RunCheckpointed emitted no snapshots over %d cycles", res.TotalCycles)
	}
	r, err := vichar.Restore(blobs[len(blobs)-1])
	if err != nil {
		t.Fatalf("Restore of last checkpoint (cycle %d): %v", cycles[len(cycles)-1], err)
	}
	compareRuns(t, want, finish(r), "resume from last periodic checkpoint")

	s2, err := vichar.NewSimulator(cfg)
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	defer s2.Close()
	if _, err := s2.RunCheckpointed(0, func(int64, []byte) error { return nil }); err == nil {
		t.Fatalf("RunCheckpointed accepted a non-positive interval")
	}
}

// TestSnapshotRestoreSubprocess proves the snapshot is self-contained:
// a fresh process restores the blob and finishes with the same digest
// as the straight-through run in this process. The child is this same
// test re-executed with VICHAR_RESTORE_SNAPSHOT set.
func TestSnapshotRestoreSubprocess(t *testing.T) {
	if path := os.Getenv("VICHAR_RESTORE_SNAPSHOT"); path != "" {
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("helper: %v", err)
		}
		r, err := vichar.Restore(blob)
		if err != nil {
			t.Fatalf("helper: %v", err)
		}
		fmt.Printf("RESTORE-DIGEST %s\n", finish(r).digest())
		return
	}

	cfg := withFaults(snapCfg(vichar.ViChaR))
	cfg.Metrics = true
	cfg.TraceEvents = 4096

	base, err := vichar.NewSimulator(cfg)
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	want := finish(base).digest()

	s, err := vichar.NewSimulator(cfg)
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	stepTo(t, s, 150)
	blob, err := s.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	s.Close()
	path := filepath.Join(t.TempDir(), "mid.snap")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatalf("write snapshot: %v", err)
	}

	cmd := exec.Command(os.Args[0], "-test.run=TestSnapshotRestoreSubprocess$", "-test.v")
	cmd.Env = append(os.Environ(), "VICHAR_RESTORE_SNAPSHOT="+path)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("helper process failed: %v\n%s", err, out)
	}
	got := ""
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if _, err := fmt.Sscanf(sc.Text(), "RESTORE-DIGEST %s", &got); err == nil {
			break
		}
	}
	if got == "" {
		t.Fatalf("helper printed no digest:\n%s", out)
	}
	if got != want {
		t.Errorf("cross-process resume digest %s, straight-through %s", got, want)
	}
}

// TestSnapshotCorruptionRejected flips a single bit at sampled
// offsets across the blob (plus every header and trailer byte);
// Restore must reject each mutant before loading any state.
func TestSnapshotCorruptionRejected(t *testing.T) {
	cfg := withFaults(snapCfg(vichar.Generic))
	s, err := vichar.NewSimulator(cfg)
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	stepTo(t, s, 120)
	blob, err := s.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	s.Close()

	offsets := make(map[int]bool)
	for i := 0; i < 24 && i < len(blob); i++ {
		offsets[i] = true // magic, version, config length
	}
	for i := len(blob) - 8; i < len(blob); i++ {
		offsets[i] = true // checksum trailer
	}
	stride := len(blob)/512 + 1
	for i := 0; i < len(blob); i += stride {
		offsets[i] = true
	}
	for off := range offsets {
		mutant := append([]byte(nil), blob...)
		mutant[off] ^= 0x10
		if _, err := vichar.Restore(mutant); err == nil {
			t.Fatalf("Restore accepted a snapshot with byte %d flipped", off)
		}
	}
	for _, n := range []int{0, 1, 7, 8, 12, len(blob) / 2, len(blob) - 1} {
		if _, err := vichar.Restore(blob[:n]); err == nil {
			t.Fatalf("Restore accepted a snapshot truncated to %d bytes", n)
		}
	}
	if _, err := vichar.Restore(append(append([]byte(nil), blob...), 0xEE)); err == nil {
		t.Fatalf("Restore accepted a snapshot with trailing garbage")
	}
}

// FuzzRestore feeds arbitrary mutations of a valid snapshot to
// Restore: it must either reject the input or yield a simulator that
// survives stepping — never panic.
func FuzzRestore(f *testing.F) {
	cfg := withFaults(snapCfg(vichar.ViChaR))
	cfg.Metrics = true
	s, err := vichar.NewSimulator(cfg)
	if err != nil {
		f.Fatalf("NewSimulator: %v", err)
	}
	stepTo := func(c int64) {
		for s.Now() < c {
			s.Step()
		}
	}
	stepTo(90)
	blob, err := s.Snapshot()
	if err != nil {
		f.Fatalf("Snapshot: %v", err)
	}
	s.Close()
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add(blob[:9])
	f.Add([]byte("VCHRSNAP"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := vichar.Restore(data)
		if err != nil {
			return
		}
		defer r.Close()
		for i := 0; i < 3; i++ {
			r.Step()
		}
	})
}
