package stats

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"vichar/internal/flit"
)

func eject(c *Collector, now, created int64) {
	c.PacketEjected(&flit.Packet{Size: 4, CreatedAt: created, EjectedAt: now}, now)
}

func TestWarmupExcluded(t *testing.T) {
	c := NewCollector(2, 3, 4)
	// Two warm-up packets with huge latencies must not count.
	eject(c, 1000, 0)
	eject(c, 2000, 0)
	if c.Measuring() != true {
		t.Fatal("measurement window should open at the warm-up boundary")
	}
	// Three measured packets with latency 10 each.
	eject(c, 2010, 2000)
	eject(c, 2020, 2010)
	eject(c, 2030, 2020)
	if !c.Done() {
		t.Fatal("quota met but not done")
	}
	r := c.Finalize(2030, false)
	if r.AvgLatency != 10 {
		t.Fatalf("avg latency %.1f, want 10 (warm-up leaked in)", r.AvgLatency)
	}
	if r.MeasuredPackets != 3 || r.EjectedPackets != 5 {
		t.Fatalf("measured %d / ejected %d", r.MeasuredPackets, r.EjectedPackets)
	}
}

func TestThroughputOverWindow(t *testing.T) {
	c := NewCollector(1, 2, 4)
	eject(c, 100, 0)   // warm-up; window opens at cycle 100
	eject(c, 150, 140) // measured, 4 flits
	eject(c, 200, 190) // measured, 4 flits; window closes at 200
	r := c.Finalize(500, false)
	if r.MeasureCycles != 100 {
		t.Fatalf("window %d cycles, want 100", r.MeasureCycles)
	}
	if math.Abs(r.Throughput-8.0/100) > 1e-9 {
		t.Fatalf("throughput %.4f, want 0.08", r.Throughput)
	}
}

func TestQuotaStopsLatencyAccumulation(t *testing.T) {
	c := NewCollector(0, 1, 4)
	eject(c, 10, 0) // the one measured packet: latency 10
	eject(c, 99999, 0)
	r := c.Finalize(99999, false)
	if r.AvgLatency != 10 {
		t.Fatalf("post-quota ejection leaked into latency: %.1f", r.AvgLatency)
	}
}

func TestZeroWarmup(t *testing.T) {
	c := NewCollector(0, 2, 4)
	eject(c, 50, 40)
	eject(c, 60, 45)
	r := c.Finalize(60, false)
	if r.MeasuredPackets != 2 || r.AvgLatency != 12.5 {
		t.Fatalf("zero-warm-up stats wrong: %+v", r)
	}
}

func TestSampling(t *testing.T) {
	c := NewCollector(1, 10, 2)
	// Before measurement: series recorded, averages not.
	c.Sample(10, 0.5, []float64{2, 4})
	eject(c, 20, 0) // opens the window
	c.Sample(30, 0.25, []float64{1, 3})
	c.Sample(40, 0.75, []float64{3, 5})
	r := c.Finalize(50, true)
	if len(r.VCSeries) != 3 {
		t.Fatalf("series has %d points, want 3 (pre-window included)", len(r.VCSeries))
	}
	if math.Abs(r.AvgOccupancy-0.5) > 1e-9 {
		t.Fatalf("occupancy %.3f, want mean of measured samples 0.5", r.AvgOccupancy)
	}
	if math.Abs(r.AvgInUseVCs-3.0) > 1e-9 {
		t.Fatalf("avg VCs %.3f, want 3", r.AvgInUseVCs)
	}
	if math.Abs(r.PerNodeVCs[0]-2.0) > 1e-9 || math.Abs(r.PerNodeVCs[1]-4.0) > 1e-9 {
		t.Fatalf("per-node VCs %v", r.PerNodeVCs)
	}
	if !r.Saturated {
		t.Fatal("saturation flag lost")
	}
}

func TestCountersAddSub(t *testing.T) {
	a := Counters{BufferWrites: 10, BufferReads: 8, XbarTraversals: 7, LinkTraversals: 6, VAOps: 5, SAOps: 4, VCGrants: 3}
	b := Counters{BufferWrites: 1, BufferReads: 2, XbarTraversals: 3, LinkTraversals: 4, VAOps: 1, SAOps: 1, VCGrants: 1}
	d := a.Sub(b)
	if d.BufferWrites != 9 || d.BufferReads != 6 || d.XbarTraversals != 4 ||
		d.LinkTraversals != 2 || d.VAOps != 4 || d.SAOps != 3 || d.VCGrants != 2 {
		t.Fatalf("sub wrong: %+v", d)
	}
	var sum Counters
	sum.Add(a)
	sum.Add(b)
	if sum.BufferWrites != 11 || sum.VCGrants != 4 {
		t.Fatalf("add wrong: %+v", sum)
	}
}

func TestResultsString(t *testing.T) {
	r := Results{Label: "ViC-16", InjectionRate: 0.25, AvgLatency: 36.5,
		Throughput: 15.9, AvgOccupancy: 0.051, AvgInUseVCs: 0.75, MeasuredPackets: 100}
	s := r.String()
	for _, want := range []string{"ViC-16", "0.250", "36.5", "15.90", "5.1%"} {
		if !strings.Contains(s, want) {
			t.Errorf("results string %q missing %q", s, want)
		}
	}
}

func TestFinalizeWithoutQuota(t *testing.T) {
	// A saturated run never opens the window; finalize must not
	// divide by zero or fabricate metrics.
	c := NewCollector(100, 100, 4)
	eject(c, 10, 0)
	r := c.Finalize(5000, true)
	if r.AvgLatency != 0 || r.MeasuredPackets != 0 {
		t.Fatalf("unopened window fabricated metrics: %+v", r)
	}
	if !r.Saturated || r.EjectedPackets != 1 {
		t.Fatalf("run accounting wrong: %+v", r)
	}
}

func TestLatencyPercentiles(t *testing.T) {
	c := NewCollector(0, 100, 4)
	// Latencies 1..100.
	for i := int64(1); i <= 100; i++ {
		eject(c, 1000+i, 1000+i-i) // latency = i
	}
	r := c.Finalize(1100, false)
	if r.MaxLatency != 100 {
		t.Fatalf("max %d, want 100", r.MaxLatency)
	}
	if r.P50Latency < 50 || r.P50Latency > 51 {
		t.Fatalf("p50 %.2f, want ≈50.5", r.P50Latency)
	}
	if r.P95Latency < 95 || r.P95Latency > 96 {
		t.Fatalf("p95 %.2f", r.P95Latency)
	}
	if r.P99Latency < 99 || r.P99Latency > 100 {
		t.Fatalf("p99 %.2f", r.P99Latency)
	}
	if r.P50Latency > r.P95Latency || r.P95Latency > r.P99Latency {
		t.Fatal("percentiles not ordered")
	}
}

// quantile is the histogram's p-quantile of samples (given in any
// order).
func quantile(samples []int64, p float64) float64 {
	var h Histogram
	for _, v := range samples {
		h.Add(v)
	}
	return h.Quantile(p)
}

func TestPercentileHelper(t *testing.T) {
	if quantile(nil, 0.5) != 0 {
		t.Fatal("empty sample percentile nonzero")
	}
	if got := quantile([]int64{7}, 0.99); got != 7 {
		t.Fatalf("singleton percentile %.1f", got)
	}
	if got := quantile([]int64{1, 3}, 0.5); got != 2 {
		t.Fatalf("interpolated median %.1f, want 2", got)
	}
}

// Pin the percentile contract: linear interpolation between closest
// ranks (pos = p*(n-1)), single-element samples return that element
// for every p, and p=1.0 returns the maximum.
func TestPercentileLinearInterpolation(t *testing.T) {
	cases := []struct {
		name   string
		sorted []int64
		p      float64
		want   float64
	}{
		{"empty", nil, 0.5, 0},
		{"n=1 p=0", []int64{10}, 0, 10},
		{"n=1 p=0.5", []int64{10}, 0.5, 10},
		{"n=1 p=1", []int64{10}, 1.0, 10},
		{"n=2 median interpolates", []int64{10, 20}, 0.5, 15},
		{"n=2 p=1 is max", []int64{10, 20}, 1.0, 20},
		{"n=4 p75", []int64{1, 2, 3, 10}, 0.75, 4.75}, // pos=2.25 -> 3 + 0.25*7
		{"n=5 exact rank", []int64{1, 2, 3, 4, 5}, 0.5, 3},
	}
	for _, c := range cases {
		if got := quantile(c.sorted, c.p); got != c.want {
			t.Errorf("%s: quantile(%v, %g) = %g, want %g", c.name, c.sorted, c.p, got, c.want)
		}
	}
}

// sortedPercentile is the sort-based reference: linear interpolation
// over a sorted copy of the samples.
func sortedPercentile(sorted []int64, p float64) float64 {
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return float64(sorted[len(sorted)-1])
	}
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[lo+1])*frac
}

// TestHistogramMatchesSortedReference: over random samples, the
// histogram's P50, P95, P99, Max and mean equal the sort-based
// reduction bit for bit — at sizes from 1 to 5 000, with heavy ties,
// at n = 2 and with one outlier far above the rest, the range widening
// on every new minimum and maximum on the way.
func TestHistogramMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	draws := map[string]func(i, n int) int64{
		"uniform": func(int, int) int64 { return 10 + rng.Int63n(500) },
		"ties":    func(int, int) int64 { return 20 + rng.Int63n(4) },
		"outlier": func(i, n int) int64 {
			if i == n/2 {
				return 100_000
			}
			return 5 + rng.Int63n(60)
		},
	}
	sizes := []int{1, 2, 3, 7, 100, 101, 999, 5_000}
	for n := 1; n <= 5_000; n += 1 + n/4 {
		sizes = append(sizes, n)
	}
	for _, name := range []string{"uniform", "ties", "outlier"} {
		for _, n := range sizes {
			samples := make([]int64, n)
			var h Histogram
			for i := range samples {
				samples[i] = draws[name](i, n)
				h.Add(samples[i])
			}
			sorted := append([]int64(nil), samples...)
			slices.Sort(sorted)
			sum := 0.0
			for _, v := range sorted {
				sum += float64(v)
			}
			for _, p := range []float64{0, 0.50, 0.95, 0.99, 1} {
				if got, want := h.Quantile(p), sortedPercentile(sorted, p); got != want {
					t.Fatalf("%s n=%d: Quantile(%g) = %v, sorted reference %v", name, n, p, got, want)
				}
			}
			if h.Max() != sorted[n-1] || h.Count() != int64(n) {
				t.Fatalf("%s n=%d: max %d count %d, want %d and %d", name, n, h.Max(), h.Count(), sorted[n-1], n)
			}
			if got, want := float64(h.Sum())/float64(h.Count()), sum/float64(n); got != want {
				t.Fatalf("%s n=%d: mean %v, float-loop reference %v", name, n, got, want)
			}
		}
	}
}

// TestFinalizeAllocBudget: the memory of a reduction is bounded by the
// latency range, not the sample count. With 200 000 latencies recorded,
// Finalize plus Latencies() allocate under 64 KB — a histogram over the
// range and the result's small slices — where a sorted copy and a
// defensive copy of the record would take 3.2 MB.
func TestFinalizeAllocBudget(t *testing.T) {
	const samples = 200_000
	c := NewCollector(0, samples, 4)
	rng := rand.New(rand.NewSource(1))
	for i := int64(0); i < samples; i++ {
		lat := 20 + rng.Int63n(1_000)
		c.PacketEjected(&flit.Packet{Size: 4, CreatedAt: i, InjectedAt: i, EjectedAt: i + lat}, i+lat)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := c.Finalize(samples+2_000, false)
	lats := c.Latencies()
	runtime.ReadMemStats(&after)
	if r.MeasuredPackets != samples || len(lats) != samples {
		t.Fatalf("measured %d packets, %d latencies; want %d", r.MeasuredPackets, len(lats), samples)
	}
	if cap(lats) != len(lats) {
		t.Fatalf("Latencies() has capacity %d past its %d samples: an append would write into the record", cap(lats), len(lats))
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("Finalize + Latencies allocated %d bytes for %d samples", got, samples)
	if got >= 64<<10 {
		t.Fatalf("Finalize + Latencies allocated %d bytes for %d samples, want < 64 KB", got, samples)
	}
}

// P50/P95/P99 over 1..100 under the inclusive linear-interpolation
// convention: pos = p*99.
func TestFinalizePercentiles(t *testing.T) {
	c := NewCollector(0, 100, 1)
	for i := int64(1); i <= 100; i++ {
		c.PacketEjected(&flit.Packet{Size: 1, CreatedAt: 0, InjectedAt: 0, EjectedAt: i}, i)
	}
	r := c.Finalize(100, false)
	if r.P50Latency != 50.5 {
		t.Errorf("P50 = %g, want 50.5", r.P50Latency)
	}
	if r.P95Latency != 95.05 {
		t.Errorf("P95 = %g, want 95.05", r.P95Latency)
	}
	if r.P99Latency != 99.01 {
		t.Errorf("P99 = %g, want 99.01", r.P99Latency)
	}
	if r.MaxLatency != 100 {
		t.Errorf("MaxLatency = %d, want 100", r.MaxLatency)
	}
}

// A saturated run closes its window at the cycle cap: Window,
// MeasureCycles and Throughput must agree on [start, now].
func TestSaturatedWindowConsistency(t *testing.T) {
	c := NewCollector(1, 10, 4)
	eject := func(created, now int64) {
		c.PacketEjected(&flit.Packet{Size: 4, CreatedAt: created, EjectedAt: now}, now)
	}
	eject(90, 100) // warm-up boundary: window opens at cycle 100
	eject(95, 110)
	eject(96, 120)
	eject(97, 130) // only 3 of 10 measured packets before the cap
	start, end, ok := c.Window(200)
	if !ok || start != 100 || end != 200 {
		t.Fatalf("Window(200) = (%d, %d, %v), want (100, 200, true)", start, end, ok)
	}
	r := c.Finalize(200, true)
	if !r.Saturated {
		t.Fatal("run not marked saturated")
	}
	if r.MeasureCycles != 100 {
		t.Fatalf("MeasureCycles = %d, want 100 (window 100..200)", r.MeasureCycles)
	}
	wantThr := float64(3*4) / 100
	if r.Throughput != wantThr {
		t.Fatalf("Throughput = %g, want %g (12 flits over the same window)", r.Throughput, wantThr)
	}
}

// With no warm-up the window opens at the first ejection's cycle (not
// the packet's creation), matching the network's counter snapshots.
func TestZeroWarmupWindowOpensAtEjection(t *testing.T) {
	c := NewCollector(0, 10, 1)
	c.PacketEjected(&flit.Packet{Size: 2, CreatedAt: 40, EjectedAt: 50}, 50)
	start, end, ok := c.Window(60)
	if !ok || start != 50 || end != 60 {
		t.Fatalf("Window(60) = (%d, %d, %v), want (50, 60, true)", start, end, ok)
	}
	if _, _, ok := NewCollector(5, 10, 1).Window(60); ok {
		t.Fatal("unopened window reported ok")
	}
}
