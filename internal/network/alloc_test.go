package network

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"vichar/internal/buffers"
	"vichar/internal/config"
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
// budget — ViChaR at most 12 000 bytes per router (32 726 before the
// slot-linked control table and the 24-byte VC state, 16 348 before
// the counter-based random streams), the fixed organizations at most
// 9 500. With -v it prints the account ROADMAP item 3 asks for: what
// each component contributes per router, from the same closed-form
// terms router.NewArena is sized by, and how much of the measured
// figure those terms leave unexplained.
func TestHeapBytesPerRouterBudget(t *testing.T) {
	budget := map[config.BufferArch]float64{config.ViChaR: 12_000, config.Generic: 9_500, config.DAMQ: 9_500, config.FCCB: 9_500}
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
				{"route tables (nodes^2 bytes, shared)", float64(n.RouteTableBytes()) / nodes},
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
