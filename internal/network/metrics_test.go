package network

import (
	"io"
	"net/http/httptest"
	"reflect"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"vichar/internal/config"
	"vichar/internal/metrics"
	"vichar/internal/stats"
)

// obsConfig is a small mesh run with the full observability layer on.
func obsConfig() *config.Config {
	cfg := config.Default()
	cfg.Width, cfg.Height = 4, 4
	cfg.InjectionRate = 0.25
	cfg.WarmupPackets = 30
	cfg.MeasurePackets = 200
	cfg.Seed = 77
	cfg.Metrics = true
	cfg.TraceEvents = 1 << 16
	return &cfg
}

// The registry's cumulative totals must reconcile exactly with the
// network's own accounting: the per-router stats.Counters sums and
// the per-link traversal counts the power model is built on.
func TestMetricsReconcileWithCounters(t *testing.T) {
	cfg := obsConfig()
	n := New(cfg)
	defer n.Close()
	res := n.Run()

	s := n.Metrics().Snapshot()
	total := n.totalCounters()
	for _, c := range []struct {
		name string
		want uint64
	}{
		{"vichar_buffer_writes_total", total.BufferWrites},
		{"vichar_buffer_reads_total", total.BufferReads},
		{"vichar_xbar_traversals_total", total.XbarTraversals},
		{"vichar_link_flits_total", total.LinkTraversals},
		{"vichar_va_ops_total", total.VAOps},
		{"vichar_sa_ops_total", total.SAOps},
		{"vichar_va_grants_total", total.VCGrants},
	} {
		if got := s.Sum(c.name); got != c.want {
			t.Errorf("%s = %d, want %d (network accounting)", c.name, got, c.want)
		}
	}
	if got := s.Sum("vichar_packets_ejected_total"); got != uint64(res.EjectedPackets) {
		t.Errorf("packets_ejected = %d, want %d", got, res.EjectedPackets)
	}
	if got := s.Sum("vichar_packets_created_total"); got != uint64(n.CreatedPackets()) {
		t.Errorf("packets_created = %d, want %d", got, n.CreatedPackets())
	}
	if cyc, ok := s.Gauge("vichar_cycle"); !ok || cyc != float64(res.TotalCycles) {
		t.Errorf("cycle gauge = %g, want %d", cyc, res.TotalCycles)
	}
	if inflight, ok := s.Gauge("vichar_packets_inflight"); !ok ||
		inflight != float64(n.CreatedPackets()-res.EjectedPackets) {
		t.Errorf("inflight gauge = %g, want %d", inflight, n.CreatedPackets()-res.EjectedPackets)
	}
	// Per-port buffer writes must also sum to the same total as the
	// unlabeled reconciliation above, i.e. labels partition the count.
	perPort := uint64(0)
	for _, cv := range s.Counters {
		if cv.Name == "vichar_buffer_writes_total" {
			perPort += cv.Value
		}
	}
	if perPort != total.BufferWrites {
		t.Errorf("per-port buffer writes sum %d, want %d", perPort, total.BufferWrites)
	}
}

// A scrape of the live HTTP handler must reconcile with the final
// stats.Results — the acceptance criterion for -metrics-addr.
func TestMetricsHandlerReconcilesWithResults(t *testing.T) {
	cfg := obsConfig()
	n := New(cfg)
	defer n.Close()
	res := n.Run()

	srv := httptest.NewServer(metrics.Handler(n.Metrics(), n.FlitTracer()))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}

	series := map[string]uint64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("unparseable exposition line %q", line)
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue // gauges with fractional values are not summed here
		}
		series[name] += uint64(v)
	}
	if got := series["vichar_packets_ejected_total"]; got != uint64(res.EjectedPackets) {
		t.Errorf("scraped packets_ejected = %d, want Results.EjectedPackets %d", got, res.EjectedPackets)
	}
	if got := series["vichar_flits_ejected_total"]; got == 0 {
		t.Error("scraped flits_ejected = 0")
	}
	if got := series["vichar_cycle"]; got != uint64(res.TotalCycles) {
		t.Errorf("scraped cycle = %d, want Results.TotalCycles %d", got, res.TotalCycles)
	}
}

// Every packet's retained event timeline must be internally
// consistent: cycles non-decreasing, starting with create and ending
// with the tail's ejection, with per-flit stages in pipeline order.
func TestFlitTimelineReconstruction(t *testing.T) {
	cfg := obsConfig()
	cfg.WarmupPackets = 0
	cfg.MeasurePackets = 50
	n := New(cfg)
	defer n.Close()
	n.Run()

	tr := n.FlitTracer()
	if tr.Total() == 0 {
		t.Fatal("tracer recorded no events")
	}
	// Pick a packet whose full lifecycle is retained: the ring holds
	// the newest events, so walk backwards from the end for a
	// timeline that starts with create.
	evs := tr.Events()
	checked := 0
	seen := map[uint64]bool{}
	for i := len(evs) - 1; i >= 0 && checked < 5; i-- {
		pkt := evs[i].Packet
		if seen[pkt] {
			continue
		}
		seen[pkt] = true
		tl := tr.Timeline(pkt)
		if tl[0].Kind != metrics.EvCreate {
			continue // truncated by the ring; try another packet
		}
		checked++
		last := tl[0].Cycle
		ejects := 0
		for _, e := range tl[1:] {
			if e.Cycle < last {
				t.Fatalf("packet %d timeline goes backwards: %+v", pkt, tl)
			}
			last = e.Cycle
			if e.Kind == metrics.EvEject {
				ejects++
			}
		}
		if ejects == 0 {
			continue // still in flight at run end
		}
		if tl[len(tl)-1].Kind != metrics.EvEject {
			t.Fatalf("packet %d timeline does not end with ejection: %+v", pkt, tl)
		}
	}
	if checked == 0 {
		t.Fatal("no fully retained packet timeline found")
	}
}

// With observability off the network must not build any of the layer.
func TestMetricsDisabledByDefault(t *testing.T) {
	cfg := config.Default()
	cfg.Width, cfg.Height = 2, 2
	cfg.WarmupPackets = 2
	cfg.MeasurePackets = 10
	n := New(&cfg)
	defer n.Close()
	n.Run()
	if n.Metrics() != nil || n.FlitTracer() != nil {
		t.Fatal("observability layer built despite Metrics=false, TraceEvents=0")
	}
}

// Observation must not perturb the simulation: instrumented and
// uninstrumented runs execute the same router loops, so for every
// architecture, with and without the transaction layer, the results
// and the per-packet latencies are identical whether the metrics
// registry and the flit tracer are on or off.
func TestObservationDoesNotPerturb(t *testing.T) {
	for _, arch := range allArchs {
		for _, txnOn := range []bool{false, true} {
			arch, txnOn := arch, txnOn
			name := arch.String()
			if txnOn {
				name += "-txn"
			}
			t.Run(name, func(t *testing.T) {
				run := func(observed bool) (stats.Results, []int64) {
					cfg := config.Default()
					cfg.Width, cfg.Height = 4, 4
					cfg.Arch = arch
					cfg.InjectionRate = 0.3
					cfg.WarmupPackets = 50
					cfg.MeasurePackets = 300
					cfg.Seed = 515
					if txnOn {
						cfg.Txn = config.TxnConfig{
							Enabled:   true,
							Rate:      0.05,
							ReadFrac:  0.7,
							WriteFrac: 0.3,
							MemEdge:   true,
						}
					}
					if observed {
						cfg.Metrics = true
						cfg.TraceEvents = 4096
					}
					n := New(&cfg)
					defer n.Close()
					res := n.Run()
					if observed && n.Metrics().Snapshot().Sum("vichar_sa_grants_total") == 0 {
						t.Fatal("observed run recorded no switch grants: probes not attached")
					}
					return res, n.Collector().Latencies()
				}
				plainRes, plainLat := run(false)
				obsRes, obsLat := run(true)
				if !reflect.DeepEqual(plainRes, obsRes) {
					t.Fatalf("observation changed the results:\noff %+v\non  %+v", plainRes, obsRes)
				}
				if !reflect.DeepEqual(plainLat, obsLat) {
					t.Fatalf("observation changed per-packet latencies (%d vs %d packets)", len(plainLat), len(obsLat))
				}
			})
		}
	}
}

// The store pass is the only work an observed network adds per flush,
// and it writes into the value slots registration sized: the first
// flush allocates nothing, however many series the mesh has (2 200 at
// 8x8); their descriptors wait for the first reader.
func TestFirstFlushAllocatesNothing(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cfg := obsConfig()
	cfg.Width, cfg.Height = 8, 8
	n := New(cfg)
	defer n.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n.FlushMetrics()
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got != 0 {
		t.Fatalf("the first flush of an 8x8 observed network allocated %d times, want 0", got)
	}
}

// A reader may take the first look at the registry — and so build its
// series descriptors — while the kernel steps on another goroutine:
// describing reads only the network's fixed structure. Run under -race
// by CI.
func TestScrapeWhileStepping(t *testing.T) {
	cfg := obsConfig()
	cfg.Workers = 1
	n := New(cfg)
	defer n.Close()
	reg := n.Metrics()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			_ = reg.Snapshot()
			if err := reg.WritePrometheus(io.Discard); err != nil {
				t.Error(err)
			}
		}
	}()
	for i := 0; i < 400; i++ {
		n.Step()
	}
	<-done
	n.FlushMetrics()
	if got, want := reg.Snapshot().Sum("vichar_packets_created_total"), uint64(n.created); got != want {
		t.Fatalf("created series = %d after the last flush, want %d", got, want)
	}
}
