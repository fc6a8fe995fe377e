package network

import (
	"bytes"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"vichar/internal/config"
	"vichar/internal/metrics"
	"vichar/internal/stats"
	"vichar/internal/trace"
)

// TestDeterministicCountersAndLatencies is the determinism contract's
// strongest regression test: two runs with the same seed must agree
// not just on the summary averages (TestDeterministicReplay) but on
// the complete activity counters and on every individual packet
// latency in ejection order. Any map-iteration or ambient-entropy
// dependence anywhere in the pipeline — the bug class vichar-lint
// exists to keep out — shows up here as a flipped arbitration
// somewhere in hundreds of thousands of decisions.
func TestDeterministicCountersAndLatencies(t *testing.T) {
	for _, arch := range allArchs {
		arch := arch
		t.Run(arch.String(), func(t *testing.T) {
			cfg := config.Default()
			cfg.Width, cfg.Height = 4, 4
			cfg.Arch = arch
			cfg.InjectionRate = 0.3
			cfg.WarmupPackets = 50
			cfg.MeasurePackets = 300
			cfg.Seed = 4242

			run := func() (stats.Counters, []int64) {
				c := cfg
				n := New(&c)
				res := n.Run()
				return res.Counters, n.Collector().Latencies()
			}
			c1, l1 := run()
			c2, l2 := run()
			if !reflect.DeepEqual(c1, c2) {
				t.Fatalf("same-seed runs diverged in counters:\n%+v\n%+v", c1, c2)
			}
			if len(l1) != len(l2) {
				t.Fatalf("same-seed runs measured %d vs %d packets", len(l1), len(l2))
			}
			for i := range l1 {
				if l1[i] != l2[i] {
					t.Fatalf("same-seed runs diverged at packet %d: latency %d vs %d", i, l1[i], l2[i])
				}
			}
		})
	}
}

// TestWorkersBitIdentical is the parallel kernel's contract test: a
// same-seed run must produce bit-identical Results — every counter and
// every per-packet latency in ejection order — whether the cycle
// kernel steps serially (Workers=1) or shards cycles across the lane
// executor: Workers=0 (one shard per processor), Workers=2, Workers=3
// (unequal shards, and more shards than a 2-CPU host has lanes) and
// Workers=GOMAXPROCS floored at 4, on the
// 4x4 mesh and on a non-square 5x3 one. The per-cycle invariant
// auditor runs throughout, so a sharding bug that corrupts
// flow-control state without flipping an arbitration is caught too.
//
// The run has the full observability layer on: the metrics registry
// (merged serially in recorder index order) and the flit-event tracer
// (drained in the same order, assigning global sequence numbers) must
// also be bit-identical across worker counts — the contract
// internal/metrics is designed around.
func TestWorkersBitIdentical(t *testing.T) {
	parallel := runtime.GOMAXPROCS(0)
	if parallel < 4 {
		parallel = 4
	}
	type mode struct {
		suffix string
		w, h   int
		faulty bool
		txn    bool
	}
	modes := []mode{
		{"", 4, 4, false, false},
		{"-faults", 4, 4, true, false},
		// NIU transaction layer on top of faulty links: the serial
		// engine tick, ejection-side admission gates and per-class NI
		// streams must shard as cleanly as the rest.
		{"-txn", 4, 4, true, true},
	}
	type cell struct {
		arch config.BufferArch
		mode
	}
	var cells []cell
	for _, arch := range allArchs {
		for _, m := range modes {
			cells = append(cells, cell{arch, m})
		}
	}
	// 15 routers over 2, 3 or 4 shards: every partition is uneven and
	// shard boundaries cut through mesh rows.
	cells = append(cells, cell{config.ViChaR, mode{"-5x3", 5, 3, true, false}})
	for _, c := range cells {
		c := c
		t.Run(c.arch.String()+c.suffix, func(t *testing.T) {
			type outcome struct {
				res    stats.Results
				lat    []int64
				snap   metrics.Snapshot
				events []metrics.Event
			}
			run := func(workers int) outcome {
				cfg := config.Default()
				cfg.Width, cfg.Height = c.w, c.h
				cfg.Arch = c.arch
				cfg.InjectionRate = 0.3
				cfg.WarmupPackets = 50
				cfg.MeasurePackets = 300
				cfg.Seed = 4242
				cfg.Audit = true
				cfg.Workers = workers
				cfg.Metrics = true
				cfg.TraceEvents = 4096
				if c.faulty {
					// Transient faults and stalls on every link class,
					// plus scheduled events: the fault layer's state
					// (retransmission buffers, stall windows, hash
					// rolls) must shard as cleanly as the rest.
					cfg.Faults = config.FaultsConfig{
						Seed:        99,
						DropRate:    0.002,
						CorruptRate: 0.001,
						StallRate:   0.0005,
						Events: []config.FaultEvent{
							{Cycle: 40, Kind: config.DropFlit, Node: 5, Port: 1},
							{Cycle: 60, Kind: config.StallPort, Node: 10, Port: 0, Cycles: 9},
						},
					}
				}
				if c.txn {
					cfg.Txn = config.TxnConfig{
						Enabled:    true,
						Rate:       0.05,
						ReadFrac:   0.7,
						WriteFrac:  0.25,
						AtomicFrac: 0.05,
						PostedFrac: 0.5,
						MemEdge:    true,
					}
				}
				n := New(&cfg)
				defer n.Close()
				res := n.Run()
				return outcome{res, n.Collector().Latencies(), n.Metrics().Snapshot(), n.FlitTracer().Events()}
			}
			serial := run(1)
			if c.faulty && serial.res.Counters.FlitDrops+serial.res.Counters.FlitCorrupts == 0 {
				t.Fatal("faulty run recorded no drops or corruptions: fault rates not applied")
			}
			for _, workers := range []int{0, 2, 3, parallel} {
				sharded := run(workers)
				if !reflect.DeepEqual(serial.res, sharded.res) {
					t.Fatalf("Workers=1 vs Workers=%d diverged in results:\n%+v\n%+v", workers, serial.res, sharded.res)
				}
				if !reflect.DeepEqual(serial.lat, sharded.lat) {
					t.Fatalf("Workers=1 vs Workers=%d diverged in per-packet latencies (%d vs %d packets)", workers, len(serial.lat), len(sharded.lat))
				}
				if !reflect.DeepEqual(serial.snap, sharded.snap) {
					t.Fatalf("Workers=1 vs Workers=%d diverged in metrics registry state", workers)
				}
				if !reflect.DeepEqual(serial.events, sharded.events) {
					t.Fatalf("Workers=1 vs Workers=%d diverged in the flit event stream (%d vs %d events)", workers, len(serial.events), len(sharded.events))
				}
			}
		})
	}
}

// TestWorkersCrossShardBitIdentical covers the links the fused batch
// shares between lanes: an 8x8 mesh at Workers 2, 3, 4 and 8 — shard
// boundaries between rows and through them — must end bit for bit
// where Workers 1 ends, in Results, per-packet latencies and the bytes
// of a snapshot of the final state, with one faulted configuration
// (retransmissions on shared links) and one transaction configuration
// (responses crossing back). Every boundary must carry flits in both
// directions, so every shared ring is written while its reader drains
// it; the race detector (CI runs this at -cpu 1,2,4) sees each access.
func TestWorkersCrossShardBitIdentical(t *testing.T) {
	base := func(workers int) config.Config {
		cfg := config.Default()
		cfg.Width, cfg.Height = 8, 8
		cfg.Arch = config.ViChaR
		cfg.InjectionRate = 0.2
		cfg.WarmupPackets = 100
		cfg.MeasurePackets = 400
		cfg.Seed = 4343
		cfg.Workers = workers
		return cfg
	}
	modes := []struct {
		name string
		set  func(*config.Config)
	}{
		{"faults", func(cfg *config.Config) {
			cfg.Faults = config.FaultsConfig{Seed: 17, DropRate: 0.003, CorruptRate: 0.002, StallRate: 0.0005}
		}},
		{"txn", func(cfg *config.Config) {
			cfg.InjectionRate = 0.05
			cfg.Txn = config.TxnConfig{Enabled: true, Rate: 0.05, ReadFrac: 0.6, WriteFrac: 0.3, AtomicFrac: 0.1, PostedFrac: 0.5, MemEdge: true}
		}},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			type outcome struct {
				res  stats.Results
				lat  []int64
				blob []byte
			}
			run := func(workers int) outcome {
				cfg := base(workers)
				m.set(&cfg)
				n := New(&cfg)
				defer n.Close()
				res := n.Run()
				if workers > 1 {
					// flits[a][b]: flits that crossed from shard a into shard b.
					shardOf := func(id int) int {
						for s := 0; ; s++ {
							if _, hi := n.shardBounds(s); id < hi {
								return s
							}
						}
					}
					flits := map[[2]int]uint64{}
					for i, l := range n.linkMeta {
						if a, b := shardOf(l.From), shardOf(l.To); a != b {
							flits[[2]int{a, b}] += n.linkFlits[i]
						}
					}
					for s := 0; s+1 < n.shardCount; s++ {
						if flits[[2]int{s, s + 1}] == 0 || flits[[2]int{s + 1, s}] == 0 {
							t.Fatalf("Workers=%d: boundary %d|%d carried %d flits up and %d down, want both nonzero",
								workers, s, s+1, flits[[2]int{s, s + 1}], flits[[2]int{s + 1, s}])
						}
					}
				}
				return outcome{res, n.Collector().Latencies(), saveBytes(t, n)}
			}
			serial := run(1)
			if c := serial.res.Counters; c.Retransmits == 0 && serial.res.Txn.Retired == 0 {
				t.Fatalf("the %s run neither retransmitted a flit nor retired a transaction", m.name)
			}
			for _, workers := range []int{2, 3, 4, 8} {
				got := run(workers)
				if !reflect.DeepEqual(serial.res, got.res) {
					t.Fatalf("Workers=1 vs Workers=%d diverged in results:\n%+v\n%+v", workers, serial.res, got.res)
				}
				if !reflect.DeepEqual(serial.lat, got.lat) {
					t.Fatalf("Workers=1 vs Workers=%d diverged in per-packet latencies", workers)
				}
				if !bytes.Equal(serial.blob, got.blob) {
					t.Fatalf("Workers=1 vs Workers=%d diverged in the final snapshot", workers)
				}
			}
		})
	}
}

// TestStepOneBarrierPerCycle pins the kernel's shape: with the auditor
// off, a Step releases exactly one executor batch, so each cycle pays
// one barrier.
func TestStepOneBarrierPerCycle(t *testing.T) {
	cfg := smokeCfg(config.ViChaR)
	cfg.Workers = 2
	n := New(&cfg)
	defer n.Close()
	n.Step() // starts the executor
	before := n.exec.epoch.Load()
	const cycles = 200
	for i := 0; i < cycles; i++ {
		n.Step()
	}
	if got := n.exec.epoch.Load() - before; got != cycles {
		t.Fatalf("%d Steps released %d executor batches, want one per cycle", cycles, got)
	}
}

// TestWorkersEjectionOrderAcrossShards pins the serial commit order of
// the per-shard ejection lists: tails that reach their destinations in
// the same cycle, at nodes owned by different shards, must commit in
// ascending node order whatever the worker count. A 4x4 mesh replays
// eight trace-scheduled packets along disjoint row paths — node 4y to
// 4y+3 eastward and back westward — each created size cycles before a
// common tail cycle, so every tail ejects in the same cycle at nodes
// 0, 3, 4, ..., 15, which Workers 2, 3 and 4 split across two to four
// shards. Packet sizes differ, so the per-packet latencies (ejection
// order) spell out the commit order, and Results and Latencies() must
// be identical under Workers 1-4.
func TestWorkersEjectionOrderAcrossShards(t *testing.T) {
	const w, tailBase = 4, 40
	// size by destination node: distinct, and not monotone in the node
	// id, so a commit in any other order changes the latency sequence.
	size := map[int]int{0: 5, 3: 2, 4: 8, 7: 1, 8: 4, 11: 7, 12: 3, 15: 6}
	var entries []trace.Entry
	for y := 0; y < w; y++ {
		west, east := y*w, y*w+w-1
		entries = append(entries,
			trace.Entry{Cycle: tailBase - int64(size[east]), Src: west, Dst: east, Size: size[east]},
			trace.Entry{Cycle: tailBase - int64(size[west]), Src: east, Dst: west, Size: size[west]})
	}
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].Cycle < entries[j].Cycle })
	dsts := []int{0, 3, 4, 7, 8, 11, 12, 15}

	run := func(workers int) (stats.Results, []int64) {
		cfg := config.Default()
		cfg.Width, cfg.Height = w, w
		cfg.Arch = config.ViChaR
		cfg.InjectionRate = 0
		cfg.WarmupPackets = 0
		cfg.MeasurePackets = len(entries)
		cfg.MaxCycles = 2_000
		cfg.Audit = true
		cfg.Workers = workers
		n := New(&cfg)
		defer n.Close()
		if err := n.ScheduleTrace(entries); err != nil {
			t.Fatal(err)
		}
		shards := map[int]bool{}
		for s := 0; s < n.shardCount; s++ {
			lo, hi := n.shardBounds(s)
			for _, d := range dsts {
				if lo <= d && d < hi {
					shards[s] = true
				}
			}
		}
		if workers > 1 && len(shards) < 2 {
			t.Fatalf("Workers=%d: the destinations fall in %d shard(s), want several", workers, len(shards))
		}
		res := n.Run()
		return res, n.Collector().Latencies()
	}

	serialRes, serialLat := run(1)
	if len(serialLat) != len(dsts) {
		t.Fatalf("measured %d packets, want %d", len(serialLat), len(dsts))
	}
	// Latency is the common tail-to-creation distance plus the size, so
	// latency - size is one constant iff every tail ejected in the same
	// cycle, and the sequence matches dsts iff they committed in
	// ascending node order.
	for i, d := range dsts {
		if got, want := serialLat[i]-int64(size[d]), serialLat[0]-int64(size[dsts[0]]); got != want {
			t.Fatalf("serial latencies %v: packet %d (to node %d) is not a same-cycle tail in ascending node order", serialLat, i, d)
		}
	}
	for workers := 2; workers <= 4; workers++ {
		res, lat := run(workers)
		if !reflect.DeepEqual(serialRes, res) {
			t.Fatalf("Workers=1 vs Workers=%d diverged in results:\n%+v\n%+v", workers, serialRes, res)
		}
		if !reflect.DeepEqual(serialLat, lat) {
			t.Fatalf("Workers=1 vs Workers=%d diverged in ejection order: latencies %v vs %v", workers, serialLat, lat)
		}
	}
}

// TestWorkersClampAndClose exercises the shard-count clamp (a worker
// count beyond the node count degrades to one shard per router, and
// Workers=0 is one shard per processor, at most one per minLaneRouters
// routers) and
// verifies Close is idempotent and leaves the network usable: a
// closed kernel lazily restarts its lanes on the next parallel step.
func TestWorkersClampAndClose(t *testing.T) {
	cfg := config.Default()
	cfg.Width, cfg.Height = 2, 2
	cfg.InjectionRate = 0.2
	cfg.WarmupPackets = 5
	cfg.MeasurePackets = 20
	cfg.Workers = 64 // far beyond 4 nodes: must clamp, not crash
	n := New(&cfg)
	if n.shardCount != 4 {
		t.Fatalf("shardCount = %d, want clamp to 4 nodes", n.shardCount)
	}
	for _, c := range []struct{ nodes, want int }{
		{4, 1},
		{16, 1},
		{63, 1},
		{64, min(processors(), 2)},
		{1024, min(processors(), 32)},
	} {
		if got := kernelShards(0, c.nodes); got != c.want {
			t.Fatalf("Workers=0 on %d routers: %d shards, want %d (one per processor, at most one per %d routers)", c.nodes, got, c.want, minLaneRouters)
		}
	}
	for i := 0; i < 10; i++ {
		n.Step()
	}
	n.Close()
	n.Close() // idempotent
	for i := 0; i < 10; i++ {
		n.Step() // lanes restart lazily
	}
	n.Close()
}
