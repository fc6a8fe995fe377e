package main

import (
	"fmt"
	"math/bits"
	"net/http"
	"net/http/httptest"
	"runtime"

	"vichar"
	"vichar/internal/arbiter"
	"vichar/internal/buffers"
	"vichar/internal/core"
	"vichar/internal/flit"
	"vichar/internal/network"
	"vichar/internal/router"
	"vichar/internal/routing"
	"vichar/internal/topology"
	"vichar/internal/traffic"
)

// The isolated layer drives: small closed loops around the layers
// that Network.Step hides, parameterized by the workload's
// representative configuration so every workload reports the same
// metric names. They call only functions that already have non-test
// callers inside the simulator (see README, "What the drives call"),
// because later changes may not edit this directory.

// drives runs every isolated drive for one configuration.
type drives struct {
	cfg vichar.Config
	// size scales iteration counts and packet quotas (1 = full; the
	// smoke test shrinks it).
	size float64
	out  map[string]float64
}

// Shares of the workload's packet quotas the short drive runs use.
const (
	workersPairShare = 0.25 // each of the Workers=1 / Workers=2 runs
	onOffPairShare   = 0.08 // each observability / fault on-off run
	onOffRounds      = 3    // interleaved rounds per variant, median reported
	constructions    = 5    // timed constructions per build-time figure
)

func runDrives(cfg vichar.Config, size float64) (map[string]float64, []opResult) {
	d := &drives{cfg: cfg, size: size, out: map[string]float64{}}
	var ops []opResult
	for _, step := range []struct {
		name string
		f    func() error
	}{
		{"drive network", d.network},
		{"drive router", d.router},
		{"drive buffers", d.buffers},
		{"drive arbiter", d.arbiter},
		{"drive routing", d.routing},
		{"drive traffic", d.traffic},
		{"drive observability", d.observability},
	} {
		ops = append(ops, attempt(step.name, step.f))
	}
	return d.out, ops
}

// iters scales an iteration count by the drive size.
func (d *drives) iters(n int) int {
	if v := int(float64(n) * d.size); v > 64 {
		return v
	}
	return 64
}

// shortRun is the drive configuration with its quotas cut to share.
func (d *drives) shortRun(share float64) vichar.Config {
	cfg := d.cfg
	cfg.WarmupPackets = int(float64(cfg.WarmupPackets)*share) + 1
	cfg.MeasurePackets = int(float64(cfg.MeasurePackets)*share) + 1
	return cfg
}

func meshOf(cfg *vichar.Config) topology.Mesh {
	if cfg.Torus {
		return topology.NewTorus(cfg.Width, cfg.Height)
	}
	return topology.New(cfg.Width, cfg.Height)
}

func routeFunc(cfg *vichar.Config) routing.Function {
	if cfg.Routing == vichar.MinimalAdaptive {
		return routing.MinimalAdaptive{}
	}
	return routing.XY{}
}

func buildRouteTables(cfg *vichar.Config) *routing.Tables {
	return routing.NewTables(routeFunc(cfg), meshOf(cfg))
}

// network times construction, weighs the constructed network, runs
// the same short simulation at Workers=1 and Workers=2 (the results
// must match), and reads the worklist's ticked fractions.
func (d *drives) network() error {
	var build []float64
	for i := 0; i < constructions; i++ {
		cfg := d.cfg
		t0 := now()
		n := network.New(&cfg)
		build = append(build, since(t0))
		n.Close()
	}
	d.out["network.new_s"] = median(build)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	held := d.cfg
	n := network.New(&held)
	runtime.GC()
	runtime.ReadMemStats(&after)
	d.out["network.heap_bytes_per_router"] = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(held.Nodes())
	n.Close()
	runtime.KeepAlive(n)

	var speed [2]float64
	var digest [2][32]byte
	for i, workers := range []int{1, 2} {
		cfg := d.shortRun(workersPairShare)
		cfg.Workers = workers
		n := network.New(&cfg)
		t0 := now()
		res := n.Run()
		secs := since(t0)
		n.Close()
		if res.Saturated {
			return fmt.Errorf("Workers=%d run hit its cycle cap", workers)
		}
		var err error
		if digest[i], err = runDigest(&res, n.Collector().Latencies()); err != nil {
			return err
		}
		speed[i] = float64(res.TotalCycles) * float64(cfg.Nodes()) / secs
		if workers == 1 {
			wl := n.WorklistStats()
			d.out["network.compute_ticked_frac"] = ratio(wl.ComputeTicked, wl.ComputeTicked+wl.ComputeSkipped)
			d.out["network.deliver_ticked_frac"] = ratio(wl.DeliverTicked, wl.DeliverTicked+wl.DeliverSkipped)
		}
	}
	d.out["network.workers_speedup"] = speed[1] / speed[0]
	if digest[0] != digest[1] {
		return fmt.Errorf("Workers=1 and Workers=2 produced different results")
	}
	return nil
}

// routerFeed drives one standalone router: it plays the upstream
// neighbours (writing flits into input ports as buffer space and free
// VCs allow) and the downstream ones (sink views that always have
// credit). Packets and flits are recycled, so the loop allocates
// nothing once warm.
type routerFeed struct {
	r     *router.Router
	cfg   *vichar.Config
	ports [5]feedPort
	dst   [5]int // destination node that leaves through each output port
	pool  []*feedPacket
	free  []*feedPacket
	fed   int
	sent  int
}

type feedPacket struct {
	pkt   flit.Packet
	flits []*flit.Flit
}

type feedPort struct {
	freeVC []int
	cur    *feedPacket
	idx    int // next flit of cur
	vc     int
	turn   int // rotates the output port successive packets leave through
}

// SendFlit is the downstream side: the flit leaves the router; its
// packet is recycled once the tail is out.
func (f *routerFeed) SendFlit(fl *flit.Flit, now int64) {
	f.sent++
	if fl.IsTail() {
		f.free = append(f.free, f.pool[fl.Pkt.ID])
	}
}

// SendCredit is the upstream side of one input port: a released VC
// may carry the next packet.
func (p *feedPort) SendCredit(c flit.Credit, now int64) {
	if c.ReleaseVC {
		p.freeVC = append(p.freeVC, c.VC)
	}
}

func newRouterFeed(cfg *vichar.Config) *routerFeed {
	mesh := meshOf(cfg)
	node := mesh.Node(cfg.Width/2, cfg.Height/2)
	f := &routerFeed{cfg: cfg, r: router.NewIn(router.NewArena(cfg, mesh), node, cfg, mesh)}
	for p := range f.ports {
		port := &f.ports[p]
		for vc := 0; vc < cfg.MaxVCs(); vc++ {
			port.freeVC = append(port.freeVC, vc)
		}
		f.r.ConnectOutput(p, f, router.NewSinkView())
		f.r.ConnectInputCredit(p, port)
		f.dst[p] = node
		if next, ok := mesh.Neighbor(node, p); ok {
			f.dst[p] = next
		}
	}
	return f
}

// offer writes at most one flit into input port in this cycle.
func (f *routerFeed) offer(in int, now int64) {
	p := &f.ports[in]
	if p.cur == nil {
		if len(p.freeVC) == 0 {
			return
		}
		var fp *feedPacket
		if n := len(f.free); n > 0 {
			fp, f.free = f.free[n-1], f.free[:n-1]
		} else {
			fp = &feedPacket{pkt: flit.Packet{ID: uint64(len(f.pool)), Size: f.cfg.PacketSize}}
			fp.flits = flit.MakeFlits(&fp.pkt)
			f.pool = append(f.pool, fp)
		}
		// Leave through any port but the one the packet came in by.
		p.turn++
		fp.pkt.Src, fp.pkt.Dst = f.r.ID(), f.dst[(in+1+p.turn%4)%5]
		fp.pkt.CreatedAt, fp.pkt.InjectedAt = now, now
		p.cur, p.idx = fp, 0
		p.vc, p.freeVC = p.freeVC[len(p.freeVC)-1], p.freeVC[:len(p.freeVC)-1]
	}
	if f.r.InputBuffer(in).FreeSlotsFor(p.vc) == 0 {
		return
	}
	fl := p.cur.flits[p.idx]
	fl.VC = p.vc
	f.r.ReceiveFlit(in, fl, now)
	f.fed++
	if p.idx++; p.idx == len(p.cur.flits) {
		p.cur = nil
	}
}

// router times Router.Tick on one standalone router under two feeds:
// all five ports offered a flit every cycle, and one port every
// eighth cycle. The figure is host ns per cycle including the
// ReceiveFlit calls that feed it.
func (d *drives) router() error {
	cfg := d.cfg
	cfg.Txn = vichar.Txn{} // a lone router carries one message class
	cfg.Metrics, cfg.TraceEvents = false, 0
	run := func(cycles int, feed func(f *routerFeed, cycle int64)) (float64, error) {
		f := newRouterFeed(&cfg)
		warm := cycles / 10
		t0 := now()
		for c := 1; c <= warm+cycles; c++ {
			if c == warm+1 {
				t0 = now()
			}
			feed(f, int64(c))
			f.r.Tick(int64(c))
		}
		ns := since(t0) * 1e9 / float64(cycles)
		if held := f.fed - f.sent; f.sent == 0 || held > f.r.TotalSlots() {
			return 0, fmt.Errorf("router fed %d flits, forwarded %d, holds at most %d", f.fed, f.sent, f.r.TotalSlots())
		}
		return ns, nil
	}
	var err error
	if d.out["router.tick_ns_loaded"], err = run(d.iters(100_000), func(f *routerFeed, cycle int64) {
		for in := range f.ports {
			f.offer(in, cycle)
		}
	}); err != nil {
		return err
	}
	d.out["router.tick_ns_light"], err = run(d.iters(400_000), func(f *routerFeed, cycle int64) {
		if cycle%8 == 0 {
			f.offer(topology.West, cycle)
		}
	})
	return err
}

// bufferFlitNs streams 4-flit packets, interleaved over the buffer's
// VCs, through one input buffer — one write and one read per cycle at
// steady state — and returns host ns per flit read. ready names a VC
// whose head is readable at the cycle, or -1.
func (d *drives) bufferFlitNs(buf buffers.Buffer, ready func(cycle int64) int) (float64, error) {
	const pktFlits = 4
	vcs := buf.MaxVCs()
	flits := make([][]*flit.Flit, vcs)
	for vc := range flits {
		flits[vc] = flit.MakeFlits(&flit.Packet{ID: uint64(vc), Size: pktFlits})
	}
	next := make([]int, vcs) // next flit of the VC's packet to write
	held := make([]int, vcs) // flits of the VC still inside the buffer
	written, read := 0, 0
	cycles := d.iters(400_000)
	t0 := now()
	for c := 1; c <= cycles; c++ {
		cycle := int64(c)
		// A VC's flit objects are reused in order, so a VC never holds
		// more than its one packet.
		if vc := c % vcs; held[vc] < pktFlits && buf.FreeSlotsFor(vc) > 0 {
			fl := flits[vc][next[vc]]
			fl.VC = vc
			if err := buf.Write(fl, cycle); err != nil {
				return 0, err
			}
			next[vc] = (next[vc] + 1) % pktFlits
			held[vc]++
			written++
		}
		if vc := ready(cycle); vc >= 0 {
			if _, err := buf.Pop(vc, cycle); err != nil {
				return 0, err
			}
			held[vc]--
			read++
		}
	}
	secs := since(t0)
	if read == 0 || written-read != buf.Occupied() {
		return 0, fmt.Errorf("buffer wrote %d flits, read %d, holds %d", written, read, buf.Occupied())
	}
	return secs * 1e9 / float64(read), nil
}

// buffers measures the four buffer organizations at the workload's
// slot and VC counts: the unified buffer through its readiness words
// (the switch allocator's path), the fixed ones through Front.
func (d *drives) buffers() error {
	cfg := &d.cfg
	ubs := core.NewUBSIn(nil, cfg.BufferSlots, cfg.BufferSlots)
	ns, err := d.bufferFlitNs(ubs, func(cycle int64) int {
		for i, w := range ubs.ReadyWords(cycle) {
			if w != 0 {
				return i*64 + bits.TrailingZeros64(w)
			}
		}
		return -1
	})
	if err != nil {
		return fmt.Errorf("ubs: %w", err)
	}
	d.out["core.ubs_flit_ns"] = ns

	depth := cfg.BufferSlots / cfg.VCs
	if depth < 1 {
		depth = 1
	}
	for _, b := range []struct {
		metric string
		buf    buffers.Buffer
	}{
		{"buffers.generic_flit_ns", buffers.NewGeneric(cfg.VCs, depth)},
		{"buffers.damq_flit_ns", buffers.NewDAMQ(cfg.VCs, cfg.BufferSlots, cfg.DAMQDelay)},
		{"buffers.fccb_flit_ns", buffers.NewFCCB(cfg.VCs, cfg.BufferSlots)},
	} {
		rr := 0
		ns, err := d.bufferFlitNs(b.buf, func(cycle int64) int {
			for i := 0; i < b.buf.MaxVCs(); i++ {
				if vc := (rr + i) % b.buf.MaxVCs(); b.buf.Front(vc, cycle) != nil {
					rr = vc + 1
					return vc
				}
			}
			return -1
		})
		if err != nil {
			return fmt.Errorf("%s: %w", b.metric, err)
		}
		d.out[b.metric] = ns
	}
	return nil
}

// arbiter times RoundRobin.ArbitrateMask over one request word with
// about half of the workload's VC count requesting.
func (d *drives) arbiter() error {
	inputs := d.cfg.MaxVCs()
	if inputs > 64 {
		inputs = 64
	}
	arb := &arbiter.NewRoundRobinBank(1, inputs)[0]
	// Fixed pseudo-random request words: the drive is deterministic
	// and needs no seed.
	var masks [256][1]uint64
	x := uint64(0x9E3779B97F4A7C15)
	for i := range masks {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		masks[i][0] = x&(1<<uint(inputs)-1) | 1
	}
	calls := d.iters(4_000_000)
	grants := 0
	t0 := now()
	for i := 0; i < calls; i++ {
		if arb.ArbitrateMask(masks[i&255][:]) >= 0 {
			grants++
		}
	}
	d.out["arbiter.mask_ns"] = since(t0) * 1e9 / float64(calls)
	if grants != calls {
		return fmt.Errorf("arbiter granted %d of %d non-empty requests", grants, calls)
	}
	return nil
}

// routing times building the route tables and looking up every
// (router, destination) pair the way the RC stage and the escape path
// do.
func (d *drives) routing() error {
	var build []float64
	var t *routing.Tables
	for i := 0; i < constructions; i++ {
		t0 := now()
		t = buildRouteTables(&d.cfg)
		build = append(build, since(t0))
	}
	d.out["routing.build_s"] = median(build)
	d.out["routing.table_bytes"] = float64(t.Bytes())

	nodes := d.cfg.Nodes()
	rounds := d.iters(2_000_000)/(nodes*nodes) + 1
	scratch := make([]int, 0, 2)
	sum := 0
	t0 := now()
	for r := 0; r < rounds; r++ {
		for cur := 0; cur < nodes; cur++ {
			for dst := 0; dst < nodes; dst++ {
				scratch = t.AppendCandidates(scratch[:0], cur, dst)
				sum += scratch[0] + t.EscapePort(cur, dst)
			}
		}
	}
	d.out["routing.lookup_ns"] = since(t0) * 1e9 / float64(rounds*nodes*nodes)
	if sum == 0 {
		return fmt.Errorf("route tables returned only port 0")
	}
	return nil
}

// traffic times the generator alone: one Tick per cycle for the whole
// mesh into a counting emit.
func (d *drives) traffic() error {
	cfg := d.cfg
	g := traffic.New(&cfg, meshOf(&cfg))
	cycles := d.iters(50_000)
	packets := 0
	emit := func(src, dst, size int) { packets++ }
	t0 := now()
	for c := 1; c <= cycles; c++ {
		g.Tick(int64(c), emit)
	}
	d.out["traffic.tick_ns"] = since(t0) * 1e9 / float64(cycles)
	d.out["traffic.packets_per_cycle"] = float64(packets) / float64(cycles)
	return nil
}

// observability runs short on/off pairs at the workload's
// configuration through the public API: registry on, tracer on, and a
// 1 % link-drop fault plan (a faulted network never sleeps), each
// against the same run with everything off. Rounds interleave the
// variants so host drift lands on all of them alike. The registry and
// the tracer must leave results untouched.
func (d *drives) observability() error {
	variants := []struct {
		name string
		set  func(cfg *vichar.Config)
	}{
		{"off", func(cfg *vichar.Config) {}},
		{"metrics", func(cfg *vichar.Config) { cfg.Metrics = true }},
		{"trace", func(cfg *vichar.Config) { cfg.TraceEvents = 65536 }},
		{"faults", func(cfg *vichar.Config) { cfg.Faults.DropRate = 0.01 }},
	}
	secs := make([][]float64, len(variants))
	digests := make([][32]byte, len(variants))
	for round := 0; round < onOffRounds; round++ {
		for v, variant := range variants {
			cfg := d.shortRun(onOffPairShare)
			cfg.Metrics, cfg.TraceEvents, cfg.Faults = false, 0, vichar.Faults{}
			variant.set(&cfg)
			sim, err := vichar.NewSimulator(cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", variant.name, err)
			}
			t0 := now()
			res := sim.Run()
			secs[v] = append(secs[v], since(t0))
			if digests[v], err = runDigest(&res, sim.Latencies()); err != nil {
				return err
			}
			if round == 0 {
				switch variant.name {
				case "metrics":
					d.out["metrics.scrape_s"] = scrapeSeconds(sim.MetricsHandler())
					if err := reconcile(sim, &res); err != nil {
						return err
					}
					d.routerCounts(sim, &res)
				case "trace":
					if events := sim.FlitEvents(); len(events) > 0 {
						// Events carry a global sequence number, so the
						// newest retained one counts every event recorded.
						total := float64(events[len(events)-1].Seq + 1)
						d.out["metrics.events_total"] = total
						d.out["metrics.events_dropped"] = total - float64(len(events))
					}
				}
			}
			sim.Close()
		}
	}
	off := median(secs[0])
	overhead := func(v int) float64 { return 100 * (median(secs[v]) - off) / off }
	d.out["metrics.on_overhead_pct"] = overhead(1)
	d.out["metrics.trace_overhead_pct"] = overhead(2)
	d.out["faults.on_overhead_pct"] = overhead(3)
	if digests[1] != digests[0] || digests[2] != digests[0] {
		return fmt.Errorf("switching the registry or the tracer on changed the results")
	}
	return nil
}

// routerCounts reads the router's per-stage work out of the registry
// of a finished metrics-on run: allocation attempts per simulated
// cycle (whole network) and the share of them granted.
func (d *drives) routerCounts(sim *vichar.Simulator, res *vichar.Results) {
	snap, _ := sim.MetricsSnapshot()
	cycles := float64(res.TotalCycles)
	vaOps, saOps := snap.Sum("vichar_va_ops_total"), snap.Sum("vichar_sa_ops_total")
	d.out["router.va_ops_per_cycle"] = float64(vaOps) / cycles
	d.out["router.sa_ops_per_cycle"] = float64(saOps) / cycles
	d.out["router.va_grant_ratio"] = ratio(snap.Sum("vichar_va_grants_total"), vaOps)
	d.out["router.sa_grant_ratio"] = ratio(snap.Sum("vichar_sa_grants_total"), saOps)
	d.out["router.credit_stalls_per_cycle"] = float64(snap.Sum("vichar_credit_stalls_total")) / cycles
}

// scrapeSeconds is the median time of a GET / on the metrics handler.
func scrapeSeconds(h http.Handler) float64 {
	var times []float64
	for i := 0; i < constructions; i++ {
		req := httptest.NewRequest(http.MethodGet, "/", nil)
		rec := httptest.NewRecorder()
		t0 := now()
		h.ServeHTTP(rec, req)
		times = append(times, since(t0))
	}
	return median(times)
}
