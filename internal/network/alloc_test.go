package network

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"vichar/internal/buffers"
	"vichar/internal/config"
	"vichar/internal/topology"
	"vichar/internal/traffic"
)

// TestStepAllocFree pins the hot-path purity contract (DESIGN.md §13)
// at runtime on a drained network — the worklist's case: after traffic
// has warmed every scratch buffer to its steady-state capacity and
// drained, Network.Step performs zero heap allocations
// (TestStepAllocFreeLoaded holds the kernel to the same contract while
// packets flow). The static side of the same contract is vichar-lint's
// escape audit; this test catches what a static gate cannot judge
// (e.g. an allocation behind a waiver that was wrongly justified as
// one-time). The Workers=2 subtests hold the lane
// executor to the same contract: its phase barrier allocates nothing
// either. testing.AllocsPerRun pins GOMAXPROCS to 1, so what they drive
// is the barrier's hard case — helpers without a processor, which park
// and are woken through their channels every phase.
func TestStepAllocFree(t *testing.T) {
	for _, arch := range []config.BufferArch{config.Generic, config.ViChaR, config.DAMQ, config.FCCB} {
		t.Run(arch.String(), func(t *testing.T) { testStepAllocFree(t, arch, 1) })
		t.Run(arch.String()+"-workers2", func(t *testing.T) { testStepAllocFree(t, arch, 2) })
	}
}

func testStepAllocFree(t *testing.T, arch config.BufferArch, workers int) {
	cfg := smokeCfg(arch)
	cfg.InjectionRate = 0
	cfg.Workers = workers
	n := New(&cfg)
	defer n.Close()
	// Warm up: run real traffic corner-to-corner and crosswise so
	// links, VC scratch, the wake lists, and the stats scratch
	// all grow to their steady-state capacity, then drain.
	for round := 0; round < 2; round++ {
		n.InjectPacket(0, 15)
		n.InjectPacket(15, 0)
		n.InjectPacket(3, 12)
		if left := n.Drain(10_000); left != 0 {
			t.Fatalf("warm-up round %d: %d packets undelivered", round, left)
		}
		// Step across a sampling boundary so the stats path is warm too.
		for i := int64(0); i < cfg.SampleEvery+1; i++ {
			n.Step()
		}
	}
	allocs := testing.AllocsPerRun(100, func() { n.Step() })
	if allocs != 0 {
		t.Fatalf("%v: Network.Step allocates %.1f times per cycle at steady state, want 0", arch, allocs)
	}
}

// TestStepAllocFreeLoaded is the contract TestStepAllocFree cannot
// check from a drained network: under sustained injection — packets
// created, materialized, forwarded over every link, ejected and their
// records recycled every cycle — Network.Step does not allocate. All
// four buffer organizations at offered load 0.30 with one and two
// kernel shards, the transaction layer at the benchmark's rate, and
// ViChaR with faults, metrics, tracing and adaptive torus routing on.
// After warm-up the survivors are amortized doublings only — the stats
// VC time series (one point per SampleEvery cycles), an NI source
// queue or the record free list reaching a new peak depth, and the
// transaction layer's latency histogram widening to a new maximum — and
// stay under 0.01 allocations and 64 bytes per Step averaged over
// 2 000 cycles (every case measures at most 0.003 and 5 bytes; a
// per-cycle append that never stops growing costs hundreds of bytes).
func TestStepAllocFreeLoaded(t *testing.T) {
	for _, arch := range allArchs {
		for _, workers := range []int{1, 2} {
			arch, workers := arch, workers
			t.Run(fmt.Sprintf("%v-workers%d", arch, workers), func(t *testing.T) {
				cfg := smokeCfg(arch)
				cfg.InjectionRate = 0.30
				cfg.Workers = workers
				testStepAllocFreeLoaded(t, &cfg)
			})
		}
	}
	t.Run("txn", func(t *testing.T) {
		cfg := smokeCfg(config.ViChaR)
		cfg.InjectionRate = 0
		cfg.Txn = config.TxnConfig{
			Enabled: true, Rate: 0.04, ReadFrac: 0.70, WriteFrac: 0.25, AtomicFrac: 0.05, PostedFrac: 0.5, MemEdge: true,
		}
		testStepAllocFreeLoaded(t, &cfg)
	})
	// The modes whose tick code the cases above never enter — the
	// faulted link path (tick's fault hook, retransmission holds, port
	// stalls), the recorder and tracer stores, and adaptive routing
	// over wraparound links with an escape VC — so that an allocation
	// there fails at runtime too, not only in the static passes
	// (DESIGN.md §13 has the which-gate-catches-what table).
	for _, mode := range []struct {
		name string
		set  func(*config.Config)
	}{
		{"faults", func(c *config.Config) {
			c.Faults = config.FaultsConfig{DropRate: 0.01, CorruptRate: 0.01, StallRate: 0.001}
		}},
		{"metrics", func(c *config.Config) { c.Metrics = true }},
		{"metrics-traced", func(c *config.Config) { c.Metrics, c.TraceEvents = true, 4096 }},
		{"adaptive-torus", func(c *config.Config) {
			c.Routing, c.Torus, c.EscapeVCs = config.MinimalAdaptive, true, 1
		}},
	} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			cfg := smokeCfg(config.ViChaR)
			cfg.InjectionRate = 0.30
			mode.set(&cfg)
			testStepAllocFreeLoaded(t, &cfg)
		})
	}
}

func testStepAllocFreeLoaded(t *testing.T, cfg *config.Config) {
	const burst, settle, measured = 300, 1_700, 2_000
	// The window stays open for the whole test, so every ejection also
	// records a latency (into the collector's one-time reservation).
	cfg.WarmupPackets, cfg.MeasurePackets = 100, 100_000
	n := New(cfg)
	defer n.Close()
	// Warm-up. A burst far past saturation — one extra packet per node
	// every fourth cycle, on top of the configured load — backs every
	// source queue up and drives every VC of every port, so each
	// grow-to-a-bound structure (NI queues, the record free list, the
	// generic VA's group rows, wake lists) reaches in a few hundred
	// cycles the capacity a
	// steady 0.30 would take tens of thousands to visit. Then the
	// backlog drains at the configured load until the network is back
	// in steady state.
	nodes := cfg.Nodes()
	for i := 0; i < burst+settle; i++ {
		if i < burst && i%4 == 0 && !cfg.Txn.Enabled {
			for src := 0; src < nodes; src++ {
				n.SendTxnPacket(src, (src+1+i/4%(nodes-1))%nodes, cfg.PacketSize, 0, 0, 0)
			}
		}
		n.Step()
	}
	backlog := 0
	for _, s := range n.nis {
		backlog += s.queued()
	}
	if backlog > 2*nodes {
		t.Fatalf("%d packets still queued at the sources after the settle phase: not in steady state", backlog)
	}
	ejected := n.Collector().Ejected()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < measured; i++ {
		n.Step()
	}
	runtime.ReadMemStats(&after)
	if got := n.Collector().Ejected() - ejected; got < measured/10 {
		t.Fatalf("only %d packets ejected in %d cycles: the network is not under load", got, measured)
	}
	perStep := float64(after.Mallocs-before.Mallocs) / measured
	bytesPerStep := float64(after.TotalAlloc-before.TotalAlloc) / measured
	t.Logf("%.4f allocations, %.1f bytes per Step (%d in %d cycles, %d packets ejected)",
		perStep, bytesPerStep, after.Mallocs-before.Mallocs, measured, n.Collector().Ejected()-ejected)
	if perStep > 0.01 {
		t.Errorf("Network.Step allocates %.3f times per cycle under load, want <= 0.01", perStep)
	}
	// The count alone misses a leak that grows by doubling: an
	// unbounded append allocates ever more rarely and ever more bytes.
	if bytesPerStep > 64 {
		t.Errorf("Network.Step allocates %.0f bytes per cycle under load, want <= 64", bytesPerStep)
	}
}

// TestHeapBytesPerRouterBudget defends the bytes: it weighs
// network.New the way the repository benchmark's
// network.heap_bytes_per_router does (live heap across construction,
// per node, on the 8x8 platform with 16 slots per port) and pins the
// budget — ViChaR at most 11 300 bytes per router (11 055 measured;
// 11 150 with the n² route tables, 32 726 before the slot-linked
// control table and the 24-byte VC state, 16 348 before the
// counter-based random streams), GEN-16, DAMQ-16 and FC-CB-16 at most
// 9 050, 9 350 and 9 200 (8 853, 9 159 and 8 999 measured; garbage
// other tests' goroutines leave can add ~100). With -v it
// prints the account ROADMAP item 3 asks for: what
// each component contributes per router, from the same closed-form
// terms router.NewArena is sized by, and how much of the measured
// figure those terms leave unexplained.
func TestHeapBytesPerRouterBudget(t *testing.T) {
	budget := map[config.BufferArch]float64{config.ViChaR: 11_300, config.Generic: 9_050, config.DAMQ: 9_350, config.FCCB: 9_200}
	for _, arch := range allArchs {
		arch := arch
		t.Run(arch.String(), func(t *testing.T) {
			cfg := config.Default()
			cfg.Arch = arch
			heap := func(build func() any) float64 {
				// Two collections each time: the second finishes the first's
				// sweep, so garbage other tests left behind is not weighed.
				var before, after runtime.MemStats
				runtime.GC()
				runtime.GC()
				runtime.ReadMemStats(&before)
				v := build()
				runtime.GC()
				runtime.GC()
				runtime.ReadMemStats(&after)
				runtime.KeepAlive(v)
				return (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(cfg.Nodes())
			}
			var n *Network
			total := heap(func() any { n = New(&cfg); return n })
			defer n.Close()
			if total > budget[arch] {
				t.Errorf("%v: network.New holds %.0f bytes per router, budget %.0f", arch, total, budget[arch])
			}

			nodes := float64(cfg.Nodes())
			p, v, slots := float64(cfg.Ports()), float64(cfg.MaxVCs()), float64(cfg.BufferSlots)
			views := float64(len(n.auditedLinks)) / nodes // credit views per router (links + NI)
			maskWords := float64((cfg.MaxVCs() + 63) / 64)
			ringBytes := 0.0
			for i := range n.flitSlab {
				ringBytes += float64(len(n.flitSlab[i].q.buf)) * float64(unsafe.Sizeof(timedFlit{}))
			}
			for i := range n.creditSlab {
				ringBytes += float64(len(n.creditSlab[i].q.buf)) * float64(unsafe.Sizeof(timedCredit{}))
			}
			// Every organization's buffer is the same slot pool; only the
			// per-output-VC stage-2 arbiters and the credit views differ.
			var vaS2G, viewState float64
			switch arch {
			case config.ViChaR:
				viewState = views * (v*2 + v + maskWords*8) // held int16, resFree bools, token tracker bitmap
			case config.Generic:
				vaS2G = p * v * 16
				viewState = views * (v*2 + v) // credits int16, open bools
			default:
				vaS2G = p * v * 16
				viewState = views * (v*2 + 2*v) // held int16, resFree+open bools
			}
			readPorts := 0.0
			if arch == config.DAMQ {
				readPorts = p * v * 8
			}
			account := []struct {
				name  string
				bytes float64
			}{
				{"buffer slots (flit pointers)", p * slots * 8},
				{"buffer links (int16 successor per slot + head/tail/count per VC)", p * (slots + 3*v) * 2},
				{"buffer structs (slice headers and registers, one per port)", p * float64(unsafe.Sizeof(buffers.Queues{}))},
				{"readiness stamps (one per VC) + DAMQ read-port stamps", p*v*8 + readPorts},
				{"vcState (24 B, pinned by router.TestVCStateSize)", p * v * 24},
				{"masks + packed routes", p*3*maskWords*8 + p*v*4},
				{"arbiter banks", 4*p*16 + vaS2G},
				{"credit views' per-VC counters and flags", viewState},
				{"link rings", ringBytes / nodes},
				{"link structs", (float64(len(n.flitSlab))*float64(unsafe.Sizeof(flitLink{})) + float64(len(n.creditSlab))*float64(unsafe.Sizeof(creditLink{}))) / nodes},
				{"NI (struct + streams)", float64(unsafe.Sizeof(ni{})) + float64(cfg.VCClasses())*float64(unsafe.Sizeof(niStream{}))},
				{"RNG streams (traffic generator)", heap(func() any { return traffic.New(&cfg, n.mesh) })},
				{"Activity rows", 4 * p * 8},
				{"route tables (one coordinate pair per node, shared)", float64(n.RouteTableBytes()) / nodes},
			}
			explained := 0.0
			for _, a := range account {
				if a.bytes > 0 {
					t.Logf("%8.0f B  %s", a.bytes, a.name)
					explained += a.bytes
				}
			}
			t.Logf("%8.0f B  everything else (Router and view structs, per-router scratch, worklist, collector)", total-explained)
			t.Logf("%8.0f B  per router, measured (budget %.0f)", total, budget[arch])
		})
	}
}

// TestNewAllocsIndependentOfMesh pins the allocation count of
// construction: network.New draws every router, buffer, credit view,
// network interface and scratch slice from the arena's pools or from a
// slab per kind, and the route computation holds one coordinate table,
// so building a 16x16 costs as many allocations as a 4x4, and a small
// constant number of them (the 8x8 took 1 797 one by one when the pools
// covered only the hot arrays). So does every optional layer: ViC-16
// and GEN-16, whose organizations draw from different view and
// allocator pools; the metrics registry, whose series are described
// only when read; the event recorders, one padded slab; a fault plan
// with transient rates, port stalls and a hard kill, whose per-router
// and per-link states and schedule rows are slabs; and the transaction
// layer, whose requesters and responders are slabs (at 8x8 the four
// took 778, 845, 652 and 151 allocations when each was one object per
// node).
//
// The collector stays off while it counts: a cycle that lands inside a
// build allocates on its own under the race detector, and a 16x16
// build is long enough to catch one.
func TestNewAllocsIndependentOfMesh(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cases := []struct {
		name   string
		budget float64
		set    func(cfg *config.Config)
	}{
		{"ViC", 80, func(cfg *config.Config) {}},
		{"GEN", 80, func(cfg *config.Config) { cfg.Arch = config.Generic }},
		{"metrics", 100, func(cfg *config.Config) { cfg.Metrics = true }},
		{"trace", 100, func(cfg *config.Config) { cfg.TraceEvents = 65536 }},
		{"faults", 100, func(cfg *config.Config) {
			cfg.Routing = config.MinimalAdaptive
			cfg.Faults = config.FaultsConfig{
				Seed: 11, DropRate: 0.002, CorruptRate: 0.001, StallRate: 0.001,
				Events: []config.FaultEvent{
					{Cycle: 500, Kind: config.KillLink, Node: 0, Port: topology.East},
					{Cycle: 200, Kind: config.StallPort, Node: 5, Port: topology.North, Cycles: 8},
					{Cycle: 300, Kind: config.DropFlit, Node: 2, Port: topology.South},
				},
			}
		}},
		{"txn", 100, func(cfg *config.Config) {
			cfg.Txn = config.TxnConfig{Enabled: true, Rate: 0.04, ReadFrac: 0.7, WriteFrac: 0.25, AtomicFrac: 0.05, PostedFrac: 0.5, MemEdge: true}
		}},
	}
	for _, c := range cases {
		counts := map[int]float64{}
		for _, side := range []int{4, 8, 16} {
			cfg := config.Default()
			cfg.Arch = config.ViChaR
			cfg.Width, cfg.Height = side, side
			cfg.Workers = 1
			c.set(&cfg)
			runtime.GC()
			counts[side] = testing.AllocsPerRun(10, func() { New(&cfg).Close() })
		}
		t.Logf("%s: network.New allocates %.0f / %.0f / %.0f times at 4x4 / 8x8 / 16x16", c.name, counts[4], counts[8], counts[16])
		if counts[4] != counts[8] || counts[8] != counts[16] {
			t.Errorf("%s: network.New allocates %.0f / %.0f / %.0f times at 4x4 / 8x8 / 16x16, want one count", c.name, counts[4], counts[8], counts[16])
		}
		if counts[16] > c.budget {
			t.Errorf("%s: network.New allocates %.0f times, budget %.0f", c.name, counts[16], c.budget)
		}
	}
}

// TestPacketRecordsRecycle pins the packet-record lifetime: generated
// packets travel in a population of records bounded by the packets in
// flight, not by the packets created, and a packet handed to a caller
// never joins it.
func TestPacketRecordsRecycle(t *testing.T) {
	cfg := smokeCfg(config.ViChaR)
	cfg.InjectionRate = 0.30
	cfg.WarmupPackets, cfg.MeasurePackets = 0, 100_000
	n := New(&cfg)
	defer n.Close()
	held := n.InjectPacket(0, 15)
	peak := int64(0)
	for i := 0; i < 5_000; i++ {
		n.Step()
		peak = max(peak, n.CreatedPackets()-n.Collector().Ejected())
	}
	inFlight := n.CreatedPackets() - n.Collector().Ejected()
	records := int64(len(n.free)) + inFlight
	if created := n.CreatedPackets(); created < 5_000 || records >= peak+recordChunk {
		t.Fatalf("%d packets created through %d records (chunks of %d) with at most %d in flight: records are not being reused", created, records, recordChunk, peak)
	}
	for _, p := range n.free {
		if p == held {
			t.Fatalf("free list holds the caller-owned packet %s", held)
		}
	}
	if held.Pooled || held.EjectedAt == 0 || held.ID != 1 || held.Dst != 15 {
		t.Fatalf("caller-owned packet was disturbed: %+v", held)
	}
}
