package vichar_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"vichar"
	"vichar/internal/network"
	"vichar/internal/routing"
	"vichar/internal/topology"
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
// counter left out of its owner's State walk fails the matrix even
// when Results' measurement window never sees it. trace is the
// recorded packet-creation trace (nil unless recording).
type runOutput struct {
	res     vichar.Results
	lats    []int64
	events  []vichar.FlitEvent
	metrics vichar.MetricsSnapshot
	trace   []vichar.TraceEntry
}

// finish runs s to completion and captures the contract surface.
func finish(s *vichar.Simulator) runOutput {
	defer s.Close()
	o := runOutput{res: s.Run(), lats: s.Latencies(), events: s.FlitEvents(), trace: s.RecordedTrace()}
	o.metrics, _ = s.MetricsSnapshot()
	return o
}

// digest hashes a run's output exactly: %#v prints float64s with the
// shortest round-tripping representation, so equal digests mean
// bit-equal values.
func (o runOutput) digest() string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%#v|%#v|%#v|%#v|%#v", o.res, o.lats, o.events, o.metrics, o.trace)))
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
	if !reflect.DeepEqual(want.trace, got.trace) {
		t.Errorf("%s: recorded traces diverge (%d vs %d entries)", label, len(want.trace), len(got.trace))
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

// resumeCase is one row of the resume matrix: a configuration, what a
// freshly built simulator is handed before it runs, and the state the
// row exists to carry across a cut.
type resumeCase struct {
	name string
	cfg  func(vichar.Config) vichar.Config
	// start, when set, prepares every freshly built simulator — never a
	// restored one, so what it sets up must travel in the snapshot.
	start func(*vichar.Simulator) error
	// until, when positive, is the cycle every run is stepped to by hand
	// before Run finishes it: past the measurement window, so cuts can
	// land after it has closed.
	until int64
	// teeth reports whether the state the row exists for is live in s
	// at a cut; end is the straight-through run's last cycle.
	teeth func(s *vichar.Simulator, end int64) bool
	// vicOnly marks a row whose state no buffer organization shapes: it
	// runs on ViChaR alone.
	vicOnly bool
}

// midPacket holds when a packet is in flight.
func midPacket(s *vichar.Simulator, _ int64) bool { return s.Created() > s.Ejected() }

// counted holds once the named counter has counted something by the
// last metrics flush, and so by the cut.
func counted(name string) func(*vichar.Simulator, int64) bool {
	return func(s *vichar.Simulator, _ int64) bool {
		m, _ := s.MetricsSnapshot()
		return m.Sum(name) > 0
	}
}

// checkResume asserts the bit-identical resume contract for cfg at
// three cuts spread across the run (all strictly before the
// straight-through run's final cycle, where the protocols align), that
// restoring and immediately re-snapshotting reproduces the blob byte
// for byte, and that taking a snapshot leaves the simulator it was
// taken from untouched. It fails the row if no cut sees the state
// rc.teeth looks for: a row that never carries its state across a cut
// has lost its teeth.
func checkResume(t *testing.T, rc resumeCase, cfg vichar.Config) {
	t.Helper()
	build := func() *vichar.Simulator {
		s, err := vichar.NewSimulator(cfg)
		if err != nil {
			t.Fatalf("NewSimulator: %v", err)
		}
		if rc.start != nil {
			if err := rc.start(s); err != nil {
				t.Fatalf("start: %v", err)
			}
		}
		return s
	}
	run := func(s *vichar.Simulator) runOutput {
		stepTo(t, s, rc.until)
		return finish(s)
	}
	want := run(build())
	total := want.res.TotalCycles
	if total < 8 {
		t.Fatalf("straight-through run lasted only %d cycles; config too small to cut", total)
	}
	cuts := []int64{total / 5, total / 2, total * 3 / 4}
	teeth := false
	prev := int64(-1)
	for _, c := range cuts {
		if c <= 0 || c == prev {
			continue
		}
		prev = c
		s := build()
		stepTo(t, s, c)
		teeth = teeth || rc.teeth(s, total)
		blob, err := s.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot at cycle %d: %v", c, err)
		}
		t.Logf("cycle %d: %d-byte snapshot", c, len(blob))
		// Saving is read-only: one walk serves both directions, so a
		// save that wrote through a pointer would show up as a second
		// snapshot that differs, or as a run that no longer finishes
		// like the straight-through one.
		twice, err := s.Snapshot()
		if err != nil {
			t.Fatalf("second Snapshot at cycle %d: %v", c, err)
		}
		if !bytes.Equal(blob, twice) {
			t.Errorf("cycle %d: two consecutive snapshots differ", c)
		}
		compareRuns(t, want, run(s), fmt.Sprintf("snapshotted twice at cycle %d, then run on", c))

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
		compareRuns(t, want, run(r), fmt.Sprintf("cut at cycle %d", c))
	}
	if !teeth {
		t.Errorf("no cut of the %d-cycle run saw the state the %q case exists for; it lost its teeth", total, rc.name)
	}
}

// txnCfg is the transaction workload of the matrix: memory-edge
// targets, mostly reads.
func txnCfg(c vichar.Config) vichar.Config {
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
			rc := resumeCase{name: fmt.Sprint(arch), teeth: midPacket}
			if txnOn {
				rc.name += "-txn"
			}
			t.Run(rc.name, func(t *testing.T) {
				cfg := withFaults(snapCfg(arch))
				cfg.Metrics = true
				cfg.TraceEvents = 4096
				if txnOn {
					cfg = txnCfg(cfg)
				}
				checkResume(t, rc, cfg)
			})
		}
	}
}

// replaySchedule is the trace the trace row replays: 200 packets, two
// every three cycles, of 1-4 flits, between scattered pairs of a 4x4.
func replaySchedule() []vichar.TraceEntry {
	out := make([]vichar.TraceEntry, 200)
	for i := range out {
		src := i * 7 % 16
		out[i] = vichar.TraceEntry{Cycle: int64(1 + 3*i/2), Src: src, Dst: (src + 1 + i%15) % 16, Size: 1 + i%4}
	}
	return out
}

// resumeMatrix is the feature half of the resume matrix, run over every
// buffer organization unless vicOnly: each row turns on a feature that
// adds or reshapes snapshot state, driven hard enough that the state is
// live at a cut.
var resumeMatrix = []resumeCase{
	{name: "torus", cfg: func(c vichar.Config) vichar.Config { c.Torus = true; return c }, teeth: midPacket},
	{name: "workers", cfg: func(c vichar.Config) vichar.Config { c.Workers = 4; return c }, teeth: midPacket},
	{name: "adaptive", cfg: func(c vichar.Config) vichar.Config {
		c.Routing = vichar.MinimalAdaptive
		c.EscapeVCs = 1
		c.DeadlockThreshold = 16
		return c
	}, teeth: midPacket},
	{name: "selfsimilar", cfg: func(c vichar.Config) vichar.Config {
		c.Traffic = vichar.SelfSimilar
		c.PacketSizeMax = 9
		return c
	}, teeth: midPacket},
	// Saturated adaptive routing on a torus: packets escape and
	// reroute (Packet.Escaped, the routers' reroute counters).
	{name: "torus-adaptive", cfg: func(c vichar.Config) vichar.Config {
		c.Torus = true
		c.Routing = vichar.MinimalAdaptive
		c.EscapeVCs = 1
		c.DeadlockThreshold = 1
		c.InjectionRate = 0.5
		c.Metrics = true
		return c
	}, teeth: counted("vichar_escape_reroutes_total")},
	// Saturated sources of packets longer than a fixed VC is deep: the
	// network interfaces stall on credits.
	{name: "ni-saturated", cfg: func(c vichar.Config) vichar.Config {
		c.InjectionRate = 0.6
		c.PacketSize = 8
		c.Metrics = true
		return c
	}, teeth: counted("vichar_ni_credit_stalls_total")},
	// Gauges sampled once, early, and not again before the end: the
	// final registry shows the gauge values a cut carried.
	{name: "sparse-samples", vicOnly: true, cfg: func(c vichar.Config) vichar.Config {
		c.Metrics = true
		c.SampleEvery = 150
		return c
	}, teeth: func(s *vichar.Simulator, end int64) bool {
		every := s.Config().SampleEvery
		return s.Now() >= every && s.Now()/every == end/every
	}},
	// Every run steps on after its measurement window closes, and the
	// later cuts fall there: the counters bracketing the window are
	// final and must stay so.
	{name: "past-window", vicOnly: true, until: 600, teeth: func(s *vichar.Simulator, _ int64) bool {
		cfg := s.Config()
		return s.Ejected() >= int64(cfg.WarmupPackets+cfg.MeasurePackets)
	}},
	// Trace replay with recording on: the cut splits the schedule and
	// the recorded trace.
	{name: "trace", vicOnly: true, cfg: func(c vichar.Config) vichar.Config { c.InjectionRate = 0; return c },
		start: func(s *vichar.Simulator) error {
			s.RecordTrace()
			return s.LoadTrace(replaySchedule())
		},
		teeth: func(s *vichar.Simulator, _ int64) bool {
			return len(s.RecordedTrace()) > 0 && s.Created() < int64(len(replaySchedule()))
		}},
	// Transactions alone, 15 requests per requester (eight of them),
	// issued slowly, and a quota the run never meets: it goes on to its
	// cycle cap long after every cap binds, so a cut before then leaves
	// requesters part-way.
	{name: "txn-capped", vicOnly: true, cfg: func(c vichar.Config) vichar.Config {
		c = txnCfg(c)
		c.InjectionRate = 0
		c.Txn.Rate = 0.05
		c.Txn.Requests = 15
		c.MeasurePackets = 1000
		c.MaxCycles = 600
		return c
	}, teeth: func(s *vichar.Simulator, _ int64) bool { return s.Created() > 0 && s.Created() < 8*15 }},
	// Scheduled one-shot drops and stall windows on either side of
	// every cut, with no rate-driven faults.
	{name: "scheduled-faults", vicOnly: true, cfg: func(c vichar.Config) vichar.Config {
		c.Metrics = true
		// Nodes 0-11 have a link through their south port (2); port 4
		// is the local input.
		for cycle := int64(5); cycle < 400; cycle += 9 {
			node := int(cycle) % 12
			c.Faults.Events = append(c.Faults.Events,
				vichar.FaultEvent{Kind: vichar.DropFlit, Node: node, Port: 2, Cycle: cycle},
				vichar.FaultEvent{Kind: vichar.StallPort, Node: 15 - node, Port: 4, Cycle: cycle, Cycles: 6})
		}
		return c
	}, teeth: counted("vichar_link_flits_dropped_total")},
}

// TestSnapshotResumeMatrix runs the rows of resumeMatrix.
func TestSnapshotResumeMatrix(t *testing.T) {
	for _, arch := range []vichar.BufferArch{vichar.Generic, vichar.ViChaR, vichar.DAMQ, vichar.FCCB} {
		for _, rc := range resumeMatrix {
			if rc.vicOnly && arch != vichar.ViChaR {
				continue
			}
			t.Run(fmt.Sprintf("%v-%s", arch, rc.name), func(t *testing.T) {
				cfg := snapCfg(arch)
				if rc.cfg != nil {
					cfg = rc.cfg(cfg)
				}
				checkResume(t, rc, cfg)
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
	// Garbage inside the sealed body — appended before the trailer,
	// checksum recomputed — passes the envelope and must be refused by
	// the end-of-body check.
	padded := append(append([]byte(nil), blob[:len(blob)-4]...), 0xEE, 0xEE, 0xEE, 0xEE, 0, 0, 0, 0)
	if _, err := vichar.Restore(reseal(padded)); err == nil || !strings.Contains(err.Error(), "4 unread bytes") {
		t.Fatalf("Restore of a re-sealed snapshot with 4 extra body bytes = %v", err)
	}
}

// TestRestoreRefusesPreReserveBlob: the escape grant reserve kept
// snap.Version 4 but gave every ViChaR credit view of an escape
// configuration one reserve flag per (class, escape) kind, where it
// had none. A blob of such a configuration cut before the reserve
// existed (testdata: a 2x2 adaptive ViC-4 at cycle 40) must be refused
// with an error, not misread; the same configuration cut today
// restores. Since version 5 (the transaction latency histogram) the
// blob is refused at the envelope, by its version word, before any
// section is read.
func TestRestoreRefusesPreReserveBlob(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "vic-adaptive-prereserve.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vichar.Restore(old); err == nil {
		t.Fatal("Restore accepted a ViChaR escape-configuration blob cut before the grant reserve")
	} else if !strings.Contains(err.Error(), "format version 4 not supported") {
		t.Fatalf("Restore of a version-4 blob = %v, want it refused by its version", err)
	}
	cfg := vichar.DefaultConfig()
	cfg.Width, cfg.Height = 2, 2
	cfg.Arch = vichar.ViChaR
	cfg.BufferSlots = 4
	cfg.Routing = vichar.MinimalAdaptive
	cfg.InjectionRate = 0.2
	cfg.WarmupPackets, cfg.MeasurePackets = 20, 40
	cfg.Seed = 5
	s, err := vichar.NewSimulator(cfg)
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	stepTo(t, s, 40)
	blob, err := s.Snapshot()
	s.Close()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if r, err := vichar.Restore(blob); err != nil {
		t.Fatalf("Restore of the same configuration cut today: %v", err)
	} else {
		r.Close()
	}
}

// reseal recomputes the envelope's CRC-32 trailer over a mutated body,
// so the mutant reaches the load-side validation instead of dying at
// the checksum.
func reseal(blob []byte) []byte {
	if len(blob) < 4 {
		return blob
	}
	body := blob[:len(blob)-4]
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
}

// restoreAndStep is the contract every checksum-valid blob is held to:
// Restore rejects it with an error, or yields a simulator that
// survives stepping. It reports a panic from either as a string.
func restoreAndStep(data []byte, steps int) (err error, panicked string) {
	defer func() {
		if r := recover(); r != nil {
			panicked = fmt.Sprint(r)
		}
	}()
	r, err := vichar.Restore(data)
	if err != nil {
		return err, ""
	}
	defer r.Close()
	for i := 0; i < steps; i++ {
		r.Step()
	}
	return nil, ""
}

// mutationCut is the cycle mutationBlobs cuts at.
const mutationCut = 120

// mutationConfigs are the configurations of the re-sealed mutation
// sweep's snapshots: ViChaR with faults and metrics (every optional
// section present), ViChaR with a tracer, and the plain generic
// organization.
func mutationConfigs() map[string]vichar.Config {
	vic := withFaults(snapCfg(vichar.ViChaR))
	vic.Metrics = true
	// A ring small enough to have wrapped by the cut, which falls between
	// two drains: events wait in the recorders too.
	traced := snapCfg(vichar.ViChaR)
	traced.TraceEvents = 48
	return map[string]vichar.Config{"ViC-faults-metrics": vic, "ViC-traced": traced, "GEN": snapCfg(vichar.Generic)}
}

// mutationBlobs are the snapshots the re-sealed mutation sweep walks,
// cut at mutationCut.
func mutationBlobs(t testing.TB) map[string][]byte {
	out := make(map[string][]byte)
	for name, cfg := range mutationConfigs() {
		s, err := vichar.NewSimulator(cfg)
		if err != nil {
			t.Fatalf("NewSimulator: %v", err)
		}
		for s.Now() < mutationCut {
			s.Step()
		}
		blob, err := s.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		s.Close()
		out[name] = blob
	}
	return out
}

// routeTarget is an active input VC's granted route, found in the cut
// state: router id sends packet pkt through output port op on VC ovc,
// and the route's port byte sits at off in the blob, its int16 VC
// right after.
type routeTarget struct {
	id, op, ovc int
	pkt         uint64
	off         int
}

// cutNetwork rebuilds the network a mutation blob of cfg was cut from
// and steps it to the same cycle.
func cutNetwork(t *testing.T, cfg vichar.Config) *network.Network {
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	n := network.New(&cfg)
	for n.Now() < mutationCut {
		n.Step()
	}
	return n
}

// vcTargets finds what the route rows of TestRestoreResealedMutations
// mutate, in n, the network the blob was cut from: e is an active VC's route whose port differs in
// one bit (bit eBit) from a port holding the same VC for a packet that
// is draining downstream; f is one whose VC differs in one bit (fBit)
// from such a draining VC on the same port. A VC is draining when its
// upstream view still holds it but no active input VC is routed to it.
func vcTargets(t *testing.T, n *network.Network, cfg vichar.Config, blob []byte, routerAt func(id int) (int, int)) (e, f routeTarget, eBit, fBit uint) {
	ports, vcs := cfg.Ports(), cfg.MaxVCs()
	held := make([]*vichar.Packet, vcs)
	draining := func(id, op, ovc int) bool {
		r := n.Router(id)
		if op >= ports || op == topology.Local || ovc >= vcs || r.OutputView(op) == nil {
			return false
		}
		r.Granted(op, held)
		return r.OutputView(op).Holds(ovc) && held[ovc] == nil
	}
	// locate returns the blob offset of the route's port byte: the VC
	// walk writes the packet reference (a presence byte and the ID),
	// the candidate byte, waitSince, then the port byte and the VC.
	locate := func(id, op, ovc int, pkt uint64) int {
		lo, hi := routerAt(id)
		at := -1
		for i := lo; i+21 <= hi; i++ {
			if blob[i] == 1 && binary.LittleEndian.Uint64(blob[i+1:]) == pkt && int(blob[i+18]) == op &&
				int(int16(binary.LittleEndian.Uint16(blob[i+19:]))) == ovc {
				if at >= 0 {
					t.Fatalf("router %d: packet %d's route (%d, %d) found twice in the blob", id, pkt, op, ovc)
				}
				at = i + 18
			}
		}
		if at < 0 {
			t.Fatalf("router %d: packet %d's route (%d, %d) not found in the blob", id, pkt, op, ovc)
		}
		return at
	}
	found, foundF := false, false
	granted := make([]*vichar.Packet, vcs)
	for id := 0; id < cfg.Nodes() && !(found && foundF); id++ {
		for op := range ports {
			n.Router(id).Granted(op, granted)
			for ovc, p := range granted {
				if p == nil {
					continue
				}
				for b := uint(0); b < 3 && !found; b++ {
					if draining(id, op^1<<b, ovc) {
						e, eBit, found = routeTarget{id, op, ovc, p.ID, locate(id, op, ovc, p.ID)}, b, true
					}
				}
				for b := uint(0); b < 4 && !foundF; b++ {
					if draining(id, op, ovc^1<<b) {
						f, fBit, foundF = routeTarget{id, op, ovc, p.ID, locate(id, op, ovc, p.ID)}, b, true
					}
				}
			}
		}
	}
	if !found || !foundF {
		t.Fatalf("the cut has no active VC one bit from a draining one (port: %v, VC: %v)", found, foundF)
	}
	return e, f, eBit, fBit
}

// ejectTarget finds, in n, the network the blob was cut from, a packet
// whose head waits for VA at its destination router id, the ejection
// port its one route candidate, and returns the blob offset of the
// packet's destination in the packet table at pkts (a count, then
// 67-byte records with the destination 16 bytes in).
func ejectTarget(t *testing.T, n *network.Network, cfg vichar.Config, blob []byte, routerAt func(id int) (int, int), pkts int) (id int, pkt uint64, dstOff int) {
	u64 := func(i int) uint64 { return binary.LittleEndian.Uint64(blob[i:]) }
	local := byte(routing.OneCandidate(topology.Local))
	sink := make([]*vichar.Packet, cfg.MaxVCs())
	for id := range cfg.Nodes() {
		r := n.Router(id)
		r.Granted(topology.Local, sink)
		lo, hi := routerAt(id)
		for p := range cfg.Ports() {
			for v := range cfg.MaxVCs() {
				f := r.InputBuffer(p).Front(v, math.MaxInt64)
				if f == nil || !f.IsHead() || f.Pkt.Dst != id || slices.Contains(sink, f.Pkt) {
					continue
				}
				// Routing computation has run once the VC's walk (the
				// packet reference, then the candidates) names the
				// ejection port alone.
				for i := lo; i+10 <= hi; i++ {
					if blob[i] != 1 || u64(i+1) != f.Pkt.ID || blob[i+9] != local {
						continue
					}
					for k, rec := uint64(0), pkts+8; k < u64(pkts); k, rec = k+1, rec+67 {
						if u64(rec) == f.Pkt.ID {
							return id, f.Pkt.ID, rec + 16
						}
					}
					t.Fatalf("packet %d is not in the packet table", f.Pkt.ID)
				}
			}
		}
	}
	t.Fatal("no packet waits at its destination for the ejection port in the cut")
	return 0, 0, 0
}

// maskTarget finds, in router id's section [lo, hi), the scan masks of
// the input port whose VC walk holds the route byte at routeOff: the
// three length-prefixed mask words (buffer, vaMask, actMask) precede
// the port's VC walks, whose lengths the masks fix. It returns the
// vaMask word's offset, the active VC the route belongs to and the
// port's first idle VC.
func maskTarget(t *testing.T, blob []byte, lo, hi, routeOff, vcs int) (vaMask, active, idle int) {
	u32 := func(i int) uint32 { return binary.LittleEndian.Uint32(blob[i:]) }
	u64 := func(i int) uint64 { return binary.LittleEndian.Uint64(blob[i:]) }
	vaMask = -1
	for j := lo; j+36 <= hi; j++ {
		if u32(j) != 1 || u32(j+12) != 1 || u32(j+24) != 1 {
			continue
		}
		va, act := u64(j+16), u64(j+28)
		pos, hit, free := j+36, -1, -1
		for v := 0; v < vcs && pos < hi; v++ {
			wait, on := va>>v&1 == 1, act>>v&1 == 1
			busy := wait || on
			if wait && on || blob[pos] > 1 || (blob[pos] == 1) != busy {
				break
			}
			if !busy && free < 0 {
				free = v
			}
			pos += 1 + 1 + 8 // packet presence, candidates, waitSince
			if busy {
				pos += 8 // packet ID
			}
			if on {
				if pos == routeOff {
					hit = v
				}
				pos += 3
			}
		}
		if hit >= 0 && free >= 0 {
			if vaMask >= 0 {
				t.Fatalf("two mask blocks lead to the route at byte %d", routeOff)
			}
			vaMask, active, idle = j+16, hit, free
		}
	}
	if vaMask < 0 {
		t.Fatalf("no mask block leads to the route at byte %d", routeOff)
	}
	return vaMask, active, idle
}

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// mutationStride spaces the sweep's mutants: it visits every Nth byte,
// and the ith byte visited gets one mutant per bit b ≡ i (mod min(N,
// 8)). At the default, coprime to every field width, successive
// mutants land on different bytes of different fields, one bit each,
// the bit index cycling through all eight; -mutation-stride=1 flips
// every bit of every byte.
var mutationStride = flag.Int("mutation-stride", 37, "TestRestoreResealedMutations visits every Nth byte (1 flips every bit)")

// TestRestoreResealedMutations is FuzzRestore's deterministic
// companion: one-bit flips strided across both blobs, each re-sealed
// so it passes the checksum, then Restore and 20 Steps under recover.
// Every mutant must be rejected with an error or survive its steps —
// no panic — and none may allocate beyond the clean restore plus a
// fixed multiple of the blob's own length: the only snapshot fields
// that size an allocation are bounded by the bytes left to read (a
// packet's 40-byte flit records by its Size, staged events by their
// count). The named rows are the mutants this sweep first caught.
func TestRestoreResealedMutations(t *testing.T) {
	for name, blob := range mutationBlobs(t) {
		// section returns the offset just past the nth (from zero)
		// occurrence of a section marker.
		section := func(marker string, nth int) int {
			at := 0
			for ; nth >= 0; nth-- {
				i := bytes.Index(blob[at:], append([]byte{byte(len(marker)), 0, 0, 0}, marker...))
				if i < 0 {
					t.Fatalf("%s: no %q section", name, marker)
				}
				at += i + 4 + len(marker)
			}
			return at
		}
		pkts := section("packets", 0)
		type row struct {
			what string
			off  int
			bit  uint
			want string // the field the rejection must name
		}
		rows := []row{
			{"(a) bit 28 of the packet-table count", pkts + 3, 4, "packet-table length"},
			{"(b) bit 36 of the first packet's Size", pkts + 8 + 24 + 4, 4, "packet size"},
			{"(c) bit 4 of the current cycle", section("network", 0), 4, "beyond cycle 104"},
			{"(d) bit 52 of node 0's draw count", section("traffic", 0) + 8 + 6, 4, "draws at cycle"},
		}
		cfg := mutationConfigs()[name]
		routerAt := func(id int) (int, int) {
			lo := section("router", id)
			if id+1 == cfg.Nodes() {
				return lo, len(blob)
			}
			return lo, section("router", id+1)
		}
		if name == "ViC-faults-metrics" {
			// What an every-bit form of this sweep found last: an active
			// VC's route moved onto an output VC whose token is still out
			// for a packet that is draining downstream. Each route is a
			// port byte and an int16 VC; the targets come from the cut
			// state.
			mesh := topology.New(cfg.Width, cfg.Height)
			link := func(id, op int) string {
				nb, _ := mesh.Neighbor(id, op)
				return fmt.Sprintf("%d->%d", id, nb)
			}
			n := cutNetwork(t, cfg)
			e, f, eBit, fBit := vcTargets(t, n, cfg, blob, routerAt)
			n.Close()
			lo, hi := routerAt(e.id)
			va, active, idle := maskTarget(t, blob, lo, hi, e.off, cfg.MaxVCs())
			eOp, fVC := e.op^1<<eBit, f.ovc^1<<fBit
			rows = append(rows,
				row{fmt.Sprintf("(e) router %d: output port %d -> %d, draining on link %s", e.id, e.op, eOp, link(e.id, eOp)), e.off, eBit,
					fmt.Sprintf("link %s: VC %d is held upstream by packet %d", link(e.id, eOp), e.ovc, e.pkt)},
				row{fmt.Sprintf("(f) router %d: output VC %d -> %d, draining on link %s", f.id, f.ovc, fVC, link(f.id, f.op)), f.off + 1, fBit,
					fmt.Sprintf("link %s: VC %d is held upstream by packet %d", link(f.id, f.op), fVC, f.pkt)},
				// The scan masks are the VC state machine and outInfo the
				// route; each is checked where it is walked.
				row{fmt.Sprintf("(k) router %d: active VC %d also waiting", e.id, active), va + active/8, uint(active % 8), "both vaMask and actMask"},
				row{fmt.Sprintf("(l) router %d: idle VC %d waiting", e.id, idle), va + idle/8, uint(idle % 8), "busy in vaMask|actMask (true) but holds a packet (false)"},
				row{fmt.Sprintf("(m) router %d: output port %d -> %d", e.id, e.op, e.op^8), e.off, 3, fmt.Sprintf("VC output port (outInfo): %d in snapshot", e.op^8)},
				row{fmt.Sprintf("(n) router %d: output VC %d -> %d", f.id, f.ovc, f.ovc^16), f.off + 1, 4, fmt.Sprintf("VC output channel (outInfo): %d in snapshot", f.ovc^16)})
		}
		if name == "ViC-traced" {
			// What the every-bit sweep of the version-10 blobs found: a
			// packet waiting at its destination for the ejection port,
			// readdressed, was ejected at the wrong node.
			n := cutNetwork(t, cfg)
			dst, pkt, dstOff := ejectTarget(t, n, cfg, blob, routerAt, pkts)
			n.Close()
			rows = append(rows, row{fmt.Sprintf("(o) packet %d waiting to eject at node %d, readdressed to %d", pkt, dst, dst^1), dstOff, 0,
				fmt.Sprintf("offers packet %d the ejection port, but it is addressed to node %d", pkt, dst^1)})
		}
		var clean uint64
		clean = allocated(func() {
			if err, p := restoreAndStep(blob, 20); err != nil || p != "" {
				t.Fatalf("%s: clean blob: error %v, panic %q", name, err, p)
			}
		})
		budget := clean + 64*uint64(len(blob))
		try := func(what string, off int, bit uint, want string) {
			mutant := append([]byte(nil), blob...)
			mutant[off] ^= 1 << bit
			mutant = reseal(mutant)
			var err error
			var p string
			if got := allocated(func() { err, p = restoreAndStep(mutant, 20) }); got > budget {
				t.Errorf("%s: %s (byte %d bit %d): allocated %d bytes, clean restore %d, blob %d", name, what, off, bit, got, clean, len(blob))
			}
			if p != "" {
				t.Errorf("%s: %s (byte %d bit %d): panic: %s", name, what, off, bit, p)
			}
			if want != "" && (err == nil || !strings.Contains(err.Error(), want)) {
				t.Errorf("%s: %s (byte %d): Restore = %v, want a rejection naming %q", name, what, off, err, want)
			}
		}
		for _, r := range rows {
			try(r.what, r.off, r.bit, r.want)
		}
		n, mutants := max(*mutationStride, 1), 0
		for i, off := 0, 0; off < len(blob)-4; i, off = i+1, off+n {
			for bit := i % min(n, 8); bit < 8; bit += min(n, 8) {
				try("strided flip", off, uint(bit), "")
				mutants++
			}
		}
		t.Logf("%s: %d strided mutants (stride %d) over %d bytes", name, mutants, n, len(blob))
	}
}

// FuzzRestore feeds arbitrary mutations of a valid snapshot, re-sealed
// so they pass the envelope checksum, to Restore: it must either
// reject the input or yield a simulator that survives stepping — never
// panic. (Unsealed, nearly every mutant would die at the CRC and the
// load-side validation would go unfuzzed.) Mutants that touch the
// embedded configuration are skipped: it is ordinary validated input,
// fuzzed by FuzzParse, and a mutated digit there asks for a thousand-
// router mesh rather than for a corrupt state.
func FuzzRestore(f *testing.F) {
	blob := mutationBlobs(f)["ViC-faults-metrics"]
	state := bytes.Index(blob, []byte("\x07\x00\x00\x00network"))
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add(blob[:state+64])
	f.Add([]byte("VCHRSNAP"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if !bytes.HasPrefix(data, blob[:min(len(data), state)]) {
			return
		}
		if _, p := restoreAndStep(reseal(data), 3); p != "" {
			t.Fatalf("panic: %s", p)
		}
	})
}
