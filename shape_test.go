package vichar_test

// Shape tests: statistical assertions that the simulator reproduces
// the paper's comparative claims. Absolute numbers differ from the
// authors' testbed; what must hold is who wins, roughly by how much,
// and where the crossovers fall. Runs are scaled down but large
// enough for stable means.

import (
	"sync"
	"testing"

	"vichar"
)

type shapeKey struct {
	arch    vichar.BufferArch
	slots   int
	vcs     int
	depth   int
	rate    float64
	traffic vichar.TrafficProcess
	sample  int64 // SampleEvery; 0 keeps the default
}

var (
	shapeMu    sync.Mutex
	shapeCache = map[shapeKey]vichar.Results{}
)

// shapeRun simulates one paper-platform configuration with caching so
// multiple assertions share runs.
func shapeRun(t *testing.T, key shapeKey) vichar.Results {
	t.Helper()
	shapeMu.Lock()
	if r, ok := shapeCache[key]; ok {
		shapeMu.Unlock()
		return r
	}
	shapeMu.Unlock()

	cfg := vichar.DefaultConfig()
	cfg.Arch = key.arch
	cfg.BufferSlots = key.slots
	if key.arch == vichar.Generic {
		cfg.VCs, cfg.VCDepth = key.vcs, key.depth
	}
	cfg.Traffic = key.traffic
	cfg.InjectionRate = key.rate
	if key.sample > 0 {
		cfg.SampleEvery = key.sample
	}
	cfg.WarmupPackets = 2_000
	cfg.MeasurePackets = 8_000
	cfg.MaxCycles = 150_000
	cfg.Seed = 1701

	res, err := vichar.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shapeMu.Lock()
	shapeCache[key] = res
	shapeMu.Unlock()
	return res
}

func gen16(rate float64) shapeKey {
	return shapeKey{arch: vichar.Generic, slots: 16, vcs: 4, depth: 4, rate: rate}
}

func vic(slots int, rate float64) shapeKey {
	return shapeKey{arch: vichar.ViChaR, slots: slots, rate: rate}
}

// Near saturation ViChaR must clearly beat the equal-size generic
// buffer (the paper's ~25% average claim is dominated by this
// region).
func TestShapeViCharBeatsGenericNearSaturation(t *testing.T) {
	g := shapeRun(t, gen16(0.42))
	v := shapeRun(t, vic(16, 0.42))
	if v.AvgLatency >= g.AvgLatency {
		t.Fatalf("ViC-16 %.1f not below GEN-16 %.1f at 0.42", v.AvgLatency, g.AvgLatency)
	}
	gain := (g.AvgLatency - v.AvgLatency) / g.AvgLatency
	if gain < 0.08 {
		t.Fatalf("latency gain %.1f%% too small near saturation", gain*100)
	}
}

// At low load the two are indistinguishable (paper Figure 12(a)'s
// overlapping region).
func TestShapeLowLoadParity(t *testing.T) {
	g := shapeRun(t, gen16(0.10))
	v := shapeRun(t, vic(16, 0.10))
	diff := (v.AvgLatency - g.AvgLatency) / g.AvgLatency
	if diff > 0.05 || diff < -0.05 {
		t.Fatalf("low-load latencies diverge %.1f%% (GEN %.1f, ViC %.1f)",
			diff*100, g.AvgLatency, v.AvgLatency)
	}
}

// The 50%-buffer headline: ViC-8 matches GEN-16 at the paper's
// operating point of 0.25 (Figure 12(f): ViChaR only loses below 8
// flits/port).
func TestShapeHalfBufferEquivalence(t *testing.T) {
	g := shapeRun(t, gen16(0.25))
	v8 := shapeRun(t, vic(8, 0.25))
	diff := (v8.AvgLatency - g.AvgLatency) / g.AvgLatency
	if diff > 0.10 {
		t.Fatalf("ViC-8 latency %.1f is %.1f%% above GEN-16 %.1f at 0.25",
			v8.AvgLatency, diff*100, g.AvgLatency)
	}
	// And below that a sharp crossover appears, as in Figure 12(f).
	// The paper's knee sits at 8 flits/port; our router is somewhat
	// more buffer-efficient and crosses at 5 (see EXPERIMENTS.md).
	v5 := shapeRun(t, vic(5, 0.25))
	if v5.AvgLatency <= g.AvgLatency*1.05 {
		t.Fatalf("ViC-5 %.1f should be clearly worse than GEN-16 %.1f",
			v5.AvgLatency, g.AvgLatency)
	}
	v4 := shapeRun(t, vic(4, 0.25))
	if v4.AvgLatency <= v5.AvgLatency {
		t.Fatalf("latency should keep climbing as the pool shrinks: ViC-4 %.1f vs ViC-5 %.1f",
			v4.AvgLatency, v5.AvgLatency)
	}
}

// Figure 12(g): shrinking a static buffer always hurts.
func TestShapeGenericMonotoneInBufferSize(t *testing.T) {
	small := shapeRun(t, shapeKey{arch: vichar.Generic, slots: 8, vcs: 4, depth: 2, rate: 0.25})
	big := shapeRun(t, gen16(0.25))
	if small.AvgLatency <= big.AvgLatency {
		t.Fatalf("GEN-8 %.1f not above GEN-16 %.1f", small.AvgLatency, big.AvgLatency)
	}
}

// Figure 13(a): ViChaR sustains at least the generic throughput at
// high load.
func TestShapeThroughputAdvantage(t *testing.T) {
	g := shapeRun(t, gen16(0.45))
	v := shapeRun(t, vic(16, 0.45))
	if v.Throughput < g.Throughput {
		t.Fatalf("ViC-16 throughput %.2f below GEN-16 %.2f at 0.45", v.Throughput, g.Throughput)
	}
}

// Figure 13(d): the DAMQ's 3-cycle bookkeeping keeps it strictly
// slower than ViChaR at every load.
func TestShapeDAMQAlwaysSlower(t *testing.T) {
	for _, rate := range []float64{0.10, 0.30} {
		d := shapeRun(t, shapeKey{arch: vichar.DAMQ, slots: 16, rate: rate})
		v := shapeRun(t, vic(16, rate))
		if d.AvgLatency <= v.AvgLatency {
			t.Fatalf("DAMQ %.1f not above ViC %.1f at %.2f", d.AvgLatency, v.AvgLatency, rate)
		}
	}
}

// Figure 13(d): FC-CB tracks ViChaR at low load (both unified,
// single-cycle) but falls behind under heavy load for want of VCs.
func TestShapeFCCBDivergesUnderLoad(t *testing.T) {
	fLow := shapeRun(t, shapeKey{arch: vichar.FCCB, slots: 16, rate: 0.15})
	vLow := shapeRun(t, vic(16, 0.15))
	if d := (fLow.AvgLatency - vLow.AvgLatency) / vLow.AvgLatency; d > 0.05 || d < -0.05 {
		t.Fatalf("FC-CB should match ViChaR at low load: %.1f vs %.1f", fLow.AvgLatency, vLow.AvgLatency)
	}
	fHigh := shapeRun(t, shapeKey{arch: vichar.FCCB, slots: 16, rate: 0.44})
	vHigh := shapeRun(t, vic(16, 0.44))
	if fHigh.AvgLatency <= vHigh.AvgLatency {
		t.Fatalf("FC-CB %.1f should trail ViChaR %.1f at 0.44", fHigh.AvgLatency, vHigh.AvgLatency)
	}
}

// Figure 12(c): ViChaR moves flits through more efficiently, so its
// buffers sit emptier at equal load and size.
func TestShapeOccupancyLower(t *testing.T) {
	g := shapeRun(t, gen16(0.30))
	v := shapeRun(t, vic(16, 0.30))
	if v.AvgOccupancy >= g.AvgOccupancy {
		t.Fatalf("ViC occupancy %.1f%% not below GEN %.1f%%",
			v.AvgOccupancy*100, g.AvgOccupancy*100)
	}
}

// Figure 13(e): congestion concentrates in the mesh center, so the
// dispenser hands out more VCs there than at the corners.
func TestShapeSpatialVCGradient(t *testing.T) {
	res := shapeRun(t, vic(16, 0.30))
	cfg := vichar.DefaultConfig()
	center := res.PerNodeVCs[vichar.NodeAt(cfg, 3, 3)] + res.PerNodeVCs[vichar.NodeAt(cfg, 4, 4)]
	corner := res.PerNodeVCs[vichar.NodeAt(cfg, 0, 0)] + res.PerNodeVCs[vichar.NodeAt(cfg, 7, 7)]
	if center <= corner {
		t.Fatalf("center VC usage %.2f not above corner %.2f", center/2, corner/2)
	}
}

// Figure 13(f): as the network fills from cold start, mean in-use VCs
// grow. It is measured where the figure is (fig13f: ViC-16 at 0.45,
// sampled every 50 cycles): near saturation the source queues keep
// filling the network, so the last samples stand well above the first,
// while further from saturation the series is flat from its first
// sample and the comparison turns on the seed.
func TestShapeTemporalVCGrowth(t *testing.T) {
	key := vic(16, 0.45)
	key.sample = 50
	s := shapeRun(t, key).VCSeries
	if len(s) < 10 {
		t.Fatalf("series too short: %d", len(s))
	}
	early := (s[0].Value + s[1].Value) / 2
	n := len(s)
	late := (s[n-1].Value + s[n-2].Value) / 2
	if late < 1.5*early {
		t.Fatalf("VC usage grew %.2f -> %.2f, want at least 1.5x", early, late)
	}
}

// Figure 12(h) and Table 1: equal-size power within a few percent,
// half-size saves roughly a third.
func TestShapePowerRelations(t *testing.T) {
	g := shapeRun(t, gen16(0.25))
	v16 := shapeRun(t, vic(16, 0.25))
	v8 := shapeRun(t, vic(8, 0.25))
	ratio := v16.AvgPowerWatts / g.AvgPowerWatts
	if ratio < 0.98 || ratio > 1.10 {
		t.Fatalf("ViC-16/GEN-16 power ratio %.3f outside [0.98, 1.10]", ratio)
	}
	saving := 1 - v8.AvgPowerWatts/g.AvgPowerWatts
	if saving < 0.25 || saving > 0.45 {
		t.Fatalf("ViC-8 power saving %.1f%%, want ~34%%", saving*100)
	}
}

// Figure 13(c): no static re-shaping of 12 slots beats the dynamic
// organization.
func TestShapeVCOrganization(t *testing.T) {
	g43 := shapeRun(t, shapeKey{arch: vichar.Generic, slots: 12, vcs: 4, depth: 3, rate: 0.42})
	g34 := shapeRun(t, shapeKey{arch: vichar.Generic, slots: 12, vcs: 3, depth: 4, rate: 0.42})
	v12 := shapeRun(t, vic(12, 0.42))
	best := g43.Throughput
	if g34.Throughput > best {
		best = g34.Throughput
	}
	if v12.Throughput < best*0.98 {
		t.Fatalf("ViC-12 throughput %.2f below best static %.2f", v12.Throughput, best)
	}
}

// Self-similar traffic: the ViChaR advantage survives bursty
// arrivals (Figure 12(b)).
func TestShapeSelfSimilarAdvantage(t *testing.T) {
	g := shapeRun(t, shapeKey{arch: vichar.Generic, slots: 16, vcs: 4, depth: 4, rate: 0.32, traffic: vichar.SelfSimilar})
	v := shapeRun(t, shapeKey{arch: vichar.ViChaR, slots: 16, rate: 0.32, traffic: vichar.SelfSimilar})
	if v.AvgLatency > g.AvgLatency*1.02 {
		t.Fatalf("ViC-16 %.1f worse than GEN-16 %.1f under SS", v.AvgLatency, g.AvgLatency)
	}
}
