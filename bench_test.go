// Benchmarks regenerating every table and figure of the paper's
// evaluation at benchmark scale: each iteration executes the
// experiment's simulations on reduced packet quotas (shape-preserving)
// and reports the headline quantity of that artifact as a custom
// metric. For full-resolution regeneration use cmd/vichar-experiments
// (optionally with -paper).
//
//	go test -bench=. -benchmem
package vichar_test

import (
	"fmt"
	"runtime"
	"testing"

	"vichar"
	"vichar/experiments"
)

// benchOpts is the reduced, shape-preserving protocol used by the
// figure benchmarks.
func benchOpts() experiments.Options {
	return experiments.Options{
		WarmupPackets:  1_000,
		MeasurePackets: 5_000,
		MaxCycles:      80_000,
		Seed:           99,
	}
}

// trim keeps only the sweep points in keep, shrinking an experiment
// to benchmark scale without changing its structure.
func trim(e *experiments.Experiment, keep ...float64) *experiments.Experiment {
	want := map[float64]bool{}
	for _, x := range keep {
		want[x] = true
	}
	var runs []experiments.Run
	for _, r := range e.Runs {
		if want[r.X] {
			runs = append(runs, r)
		}
	}
	e.Runs = runs
	return e
}

// lastY returns the named series' Y value at its largest X.
func lastY(b *testing.B, out *experiments.Outcome, series string) float64 {
	b.Helper()
	s := out.SeriesByName(series)
	if s == nil || len(s.Points) == 0 {
		b.Fatalf("series %q missing from %s", series, out.Experiment.ID)
	}
	return s.Points[len(s.Points)-1].Y
}

// execute runs the experiment once per benchmark iteration.
func execute(b *testing.B, e *experiments.Experiment) *experiments.Outcome {
	b.Helper()
	out, err := e.Execute(benchOpts())
	if err != nil {
		b.Fatal(err)
	}
	return out
}

// BenchmarkTable1Synthesis regenerates Table 1 (per-port area/power
// breakdown) from the synthesis model.
func BenchmarkTable1Synthesis(b *testing.B) {
	var areaDelta float64
	for i := 0; i < b.N; i++ {
		_, _, ad, _ := vichar.Table1()
		areaDelta = ad
	}
	b.ReportMetric(-areaDelta, "µm²-saved/port")
}

// BenchmarkHalfBufferSavings regenerates the paper's headline claim:
// half-buffer ViChaR router vs full generic router.
func BenchmarkHalfBufferSavings(b *testing.B) {
	var area, pow float64
	for i := 0; i < b.N; i++ {
		area, pow = vichar.HalfBufferSavings()
	}
	b.ReportMetric(area*100, "%area-saved")
	b.ReportMetric(pow*100, "%power-saved")
}

// BenchmarkFig12aLatencyUR regenerates Figure 12(a): UR latency,
// GEN-16 vs ViC-16, NR and TN destinations.
func BenchmarkFig12aLatencyUR(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		out := execute(b, trim(experiments.Fig12a(), 0.20, 0.40))
		gen := lastY(b, out, "GEN-NR-16")
		vic := lastY(b, out, "ViC-NR-16")
		gap = 100 * (gen - vic) / gen
	}
	b.ReportMetric(gap, "%latency-gain@0.40")
}

// BenchmarkFig12bLatencySS regenerates Figure 12(b): SS latency.
func BenchmarkFig12bLatencySS(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		out := execute(b, trim(experiments.Fig12b(), 0.15, 0.30))
		gen := lastY(b, out, "GEN-NR-16")
		vic := lastY(b, out, "ViC-NR-16")
		gap = 100 * (gen - vic) / gen
	}
	b.ReportMetric(gap, "%latency-gain@0.30")
}

// BenchmarkFig12cOccupancy regenerates Figure 12(c): pre-saturation
// buffer occupancy.
func BenchmarkFig12cOccupancy(b *testing.B) {
	var gen, vic float64
	for i := 0; i < b.N; i++ {
		out := execute(b, trim(experiments.Fig12c(), 0.30))
		gen = lastY(b, out, "GEN-16")
		vic = lastY(b, out, "ViC-16")
	}
	b.ReportMetric(gen, "%occ-GEN16@0.30")
	b.ReportMetric(vic, "%occ-ViC16@0.30")
}

// BenchmarkFig12dBufferSizesUR regenerates Figure 12(d): ViChaR
// buffer-size ladder vs GEN-16, UR.
func BenchmarkFig12dBufferSizesUR(b *testing.B) {
	var vic12 float64
	for i := 0; i < b.N; i++ {
		out := execute(b, trim(experiments.Fig12d(), 0.25, 0.40))
		vic12 = lastY(b, out, "ViC-12")
	}
	b.ReportMetric(vic12, "lat-ViC12@0.40")
}

// BenchmarkFig12eBufferSizesSS regenerates Figure 12(e): the same
// under self-similar traffic.
func BenchmarkFig12eBufferSizesSS(b *testing.B) {
	var vic12 float64
	for i := 0; i < b.N; i++ {
		out := execute(b, trim(experiments.Fig12e(), 0.15, 0.30))
		vic12 = lastY(b, out, "ViC-12")
	}
	b.ReportMetric(vic12, "lat-ViC12@0.30")
}

// BenchmarkFig12fEfficiency regenerates Figure 12(f): ViChaR latency
// vs buffer size at injection 0.25 against the GEN-16 reference.
func BenchmarkFig12fEfficiency(b *testing.B) {
	var delta float64
	for i := 0; i < b.N; i++ {
		out := execute(b, trim(experiments.Fig12f(), 8, 16))
		vic8 := out.SeriesByName("ViChaR").Points[0].Y
		gen := lastY(b, out, "Generic (16 flits/port)")
		delta = 100 * (vic8 - gen) / gen
	}
	b.ReportMetric(delta, "%ViC8-vs-GEN16")
}

// BenchmarkFig12gGenericSizes regenerates Figure 12(g): generic
// latency vs static buffer size.
func BenchmarkFig12gGenericSizes(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		out := execute(b, trim(experiments.Fig12g(), 8, 24))
		s := out.SeriesByName("GEN")
		spread = s.Points[0].Y - s.Points[len(s.Points)-1].Y
	}
	b.ReportMetric(spread, "lat-gain-8to24")
}

// BenchmarkFig12hPower regenerates Figure 12(h): network power vs
// injection rate.
func BenchmarkFig12hPower(b *testing.B) {
	var saving float64
	for i := 0; i < b.N; i++ {
		out := execute(b, trim(experiments.Fig12h(), 0.25))
		gen := lastY(b, out, "GEN-16")
		vic8 := lastY(b, out, "ViC-8")
		saving = 100 * (gen - vic8) / gen
	}
	b.ReportMetric(saving, "%power-saved-ViC8")
}

// BenchmarkFig12iAdaptive regenerates Figure 12(i): adaptive routing
// with escape-VC deadlock recovery.
func BenchmarkFig12iAdaptive(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		out := execute(b, trim(experiments.Fig12i(), 0.20, 0.35))
		gen := lastY(b, out, "GEN-16")
		vic := lastY(b, out, "ViC-16")
		gap = 100 * (gen - vic) / gen
	}
	b.ReportMetric(gap, "%latency-gain@0.35")
}

// BenchmarkFig13aThroughputUR regenerates Figure 13(a): UR
// throughput.
func BenchmarkFig13aThroughputUR(b *testing.B) {
	var gen, vic float64
	for i := 0; i < b.N; i++ {
		out := execute(b, trim(experiments.Fig13a(), 0.45))
		gen = lastY(b, out, "GEN-16")
		vic = lastY(b, out, "ViC-16")
	}
	b.ReportMetric(gen, "thr-GEN16@0.45")
	b.ReportMetric(vic, "thr-ViC16@0.45")
}

// BenchmarkFig13bThroughputSS regenerates Figure 13(b): SS
// throughput.
func BenchmarkFig13bThroughputSS(b *testing.B) {
	var vic float64
	for i := 0; i < b.N; i++ {
		out := execute(b, trim(experiments.Fig13b(), 0.30))
		vic = lastY(b, out, "ViC-16")
	}
	b.ReportMetric(vic, "thr-ViC16@0.30")
}

// BenchmarkFig13cVCOrganization regenerates Figure 13(c): static VC
// shape (4x3 vs 3x4) against ViC-12.
func BenchmarkFig13cVCOrganization(b *testing.B) {
	var vic, bestGen float64
	for i := 0; i < b.N; i++ {
		out := execute(b, trim(experiments.Fig13c(), 0.40))
		g43 := lastY(b, out, "GEN-12 (4x3)")
		g34 := lastY(b, out, "GEN-12 (3x4)")
		bestGen = g43
		if g34 > bestGen {
			bestGen = g34
		}
		vic = lastY(b, out, "ViC-12")
	}
	b.ReportMetric(vic, "thr-ViC12@0.40")
	b.ReportMetric(bestGen, "thr-bestGEN12@0.40")
}

// BenchmarkFig13dBaselines regenerates Figure 13(d): ViChaR vs DAMQ
// vs FC-CB.
func BenchmarkFig13dBaselines(b *testing.B) {
	var damqGap float64
	for i := 0; i < b.N; i++ {
		out := execute(b, trim(experiments.Fig13d(), 0.20, 0.40))
		vic := lastY(b, out, "ViC-16")
		damq := lastY(b, out, "DAMQ-16")
		damqGap = 100 * (damq - vic) / damq
	}
	b.ReportMetric(damqGap, "%gain-vs-DAMQ@0.40")
}

// BenchmarkFig13eSpatialVCs regenerates Figure 13(e): the spatial VC
// dispensation map (center vs corner contrast).
func BenchmarkFig13eSpatialVCs(b *testing.B) {
	var center, corner float64
	for i := 0; i < b.N; i++ {
		out := execute(b, experiments.Fig13e())
		res := out.Series[0].Points[0].Results
		cfg := vichar.DefaultConfig()
		center = res.PerNodeVCs[vichar.NodeAt(cfg, 3, 3)]
		corner = res.PerNodeVCs[vichar.NodeAt(cfg, 0, 0)]
	}
	b.ReportMetric(center, "vcs-center")
	b.ReportMetric(corner, "vcs-corner")
}

// BenchmarkFig13fTemporalVCs regenerates Figure 13(f): the temporal
// growth of in-use VCs as the network fills.
func BenchmarkFig13fTemporalVCs(b *testing.B) {
	var early, late float64
	for i := 0; i < b.N; i++ {
		out := execute(b, experiments.Fig13f())
		series := out.Series[0].Points[0].Results.VCSeries
		if len(series) < 4 {
			b.Fatal("VC time series too short")
		}
		early = series[0].Value
		late = series[len(series)-1].Value
	}
	b.ReportMetric(early, "vcs-start")
	b.ReportMetric(late, "vcs-end")
}

// --- Ablations: design choices DESIGN.md calls out ---

// BenchmarkAblationCappedDispenser isolates ViChaR's unified storage
// from its dynamic VC count: a ViChaR whose dispenser is capped at
// the generic router's v=4 VCs keeps the shared slot pool but loses
// the many-shallow-VCs response to congestion.
func BenchmarkAblationCappedDispenser(b *testing.B) {
	run := func(limit int) float64 {
		cfg := vichar.DefaultConfig()
		cfg.Arch = vichar.ViChaR
		cfg.VCLimit = limit
		cfg.InjectionRate = 0.40
		cfg.WarmupPackets, cfg.MeasurePackets = 1_000, 5_000
		cfg.MaxCycles = 80_000
		cfg.Seed = 99
		res, err := vichar.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return res.AvgLatency
	}
	var full, capped float64
	for i := 0; i < b.N; i++ {
		full = run(0)   // up to vk = 16 VCs
		capped = run(4) // unified storage, static VC count
	}
	b.ReportMetric(full, "lat-dynamic-vcs")
	b.ReportMetric(capped, "lat-capped-vcs")
}

// BenchmarkAblationDAMQ1Cycle isolates the DAMQ's 3-cycle linked-list
// penalty by re-running it with single-cycle bookkeeping.
func BenchmarkAblationDAMQ1Cycle(b *testing.B) {
	run := func(delay int) float64 {
		cfg := vichar.DefaultConfig()
		cfg.Arch = vichar.DAMQ
		cfg.DAMQDelay = delay
		cfg.InjectionRate = 0.30
		cfg.WarmupPackets, cfg.MeasurePackets = 1_000, 5_000
		cfg.MaxCycles = 80_000
		cfg.Seed = 99
		res, err := vichar.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return res.AvgLatency
	}
	var d3, d0 float64
	for i := 0; i < b.N; i++ {
		d3 = run(3)
		d0 = run(0)
	}
	b.ReportMetric(d3, "lat-3cycle")
	b.ReportMetric(d0, "lat-1cycle")
}

// BenchmarkSimulatorThroughput measures raw simulator speed:
// simulated router-cycles per second on the paper platform.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := vichar.DefaultConfig()
	cfg.InjectionRate = 0.25
	cfg.WarmupPackets, cfg.MeasurePackets = 500, 2_000
	cfg.Seed = 5
	b.ReportAllocs()
	var cycles int64
	for i := 0; i < b.N; i++ {
		s, err := vichar.NewSimulator(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res := s.Run()
		cycles = res.TotalCycles
	}
	b.ReportMetric(float64(cycles*int64(cfg.Nodes()))/float64(b.Elapsed().Seconds()/float64(b.N)), "router-cycles/s")
}

// --- Cycle kernel (DESIGN.md §10) ---

// The injection rates of the kernel sweep: near saturation (compute
// dominates, sharding has the most work to parallelize), mid-load
// (the regime most experiments sweep through), and near idle (most
// routers are quiet most cycles — the active-router worklist's home
// turf).
const (
	kernelSaturatedRate = 0.40
	kernelMidRate       = 0.20
	kernelIdleRate      = 0.05
)

// kernelEqualLoad are the mesh-scaling cells, run on the ViChaR
// configuration at Workers 0, 1 and 2: each rate is about 40 % of the
// uniform-random bisection bound 4/k of its k x k mesh, so a
// router-cycle carries comparable work at every size and the cost per
// router-cycle shows where the working set leaves the cache. 4x4 is
// the mesh that sets the default's floor of 32 routers a lane (two
// lanes lose there), and 32x32 the one size no BENCHMARK.json workload
// reaches.
var kernelEqualLoad = []struct {
	Dim  int
	Rate float64
}{{4, 0.40}, {8, 0.20}, {16, 0.10}, {32, 0.05}}

// kernelWarmupCycles are stepped before an equal-load cell's clock
// starts, so the timed cycles see a loaded network.
const kernelWarmupCycles = 1_000

// kernelBenchConfig is the kernel benchmark platform: a dim x dim
// mesh (the paper's 8x8 for the main sweep) at the given injection
// rate.
func kernelBenchConfig(arch vichar.BufferArch, dim int, rate float64, workers int) vichar.Config {
	cfg := vichar.DefaultConfig()
	cfg.Arch = arch
	cfg.Width, cfg.Height = dim, dim
	cfg.InjectionRate = rate
	cfg.WarmupPackets, cfg.MeasurePackets = 500, 2_000
	cfg.MaxCycles = 80_000
	cfg.Seed = 7
	cfg.Workers = workers
	return cfg
}

// kernelWorkerCounts is the sweep {1, 2, GOMAXPROCS}, deduplicated on
// small machines.
func kernelWorkerCounts() []int {
	counts := []int{1, 2, runtime.GOMAXPROCS(0)}
	var out []int
	for _, c := range counts {
		if len(out) == 0 || c > out[len(out)-1] {
			out = append(out, c)
		}
	}
	return out
}

// runKernelOnce executes one full simulation on cfg and returns its
// simulated cycle count.
func runKernelOnce(cfg vichar.Config) (int64, error) {
	s, err := vichar.NewSimulator(cfg)
	if err != nil {
		return 0, err
	}
	defer s.Close()
	res := s.Run()
	return res.TotalCycles, nil
}

// kernelCell is one (rate, workers) point of the kernel sweep.
type kernelCell struct {
	Rate    float64
	Workers int
}

// kernelSweepCells enumerates the kernel sweep: the saturated rate
// across worker counts 0 (the default, one lane per processor) and
// 1/2/max, plus the mid-load and idle rates serial and at the default,
// so one run shows whether the default is ever slower than serial.
func kernelSweepCells() []kernelCell {
	var cells []kernelCell
	for _, w := range append([]int{0}, kernelWorkerCounts()...) {
		cells = append(cells, kernelCell{kernelSaturatedRate, w})
	}
	for _, rate := range []float64{kernelMidRate, kernelIdleRate} {
		cells = append(cells, kernelCell{rate, 1}, kernelCell{rate, 0})
	}
	return cells
}

// BenchmarkKernel measures the cycle kernel: all four buffer
// architectures at the saturated rate across worker counts 0/1/2/max
// and at the mid-load and idle rates at workers 1 and 0, each op one
// complete run, and the equal-load mesh-scaling cells
// (kernelEqualLoad), each op one Step after warm-up, reported as ns per
// router-cycle. The work is identical at every worker count (results
// are bit-identical by the kernel's determinism contract), so time
// ratios are pure speedup. It is an ordinary Go benchmark for use while
// working (`make profile` samples two cells); the judged benchmark is
// BENCHMARK.json (`go run ./bench`).
func BenchmarkKernel(b *testing.B) {
	runCell := func(b *testing.B, cfg vichar.Config) {
		var cycles int64
		for i := 0; i < b.N; i++ {
			c, err := runKernelOnce(cfg)
			if err != nil {
				b.Fatal(err)
			}
			cycles = c
		}
		perRun := b.Elapsed().Seconds() / float64(b.N)
		b.ReportMetric(float64(cycles*int64(cfg.Nodes()))/perRun, "router-cycles/s")
	}
	for _, arch := range []vichar.BufferArch{vichar.Generic, vichar.ViChaR, vichar.DAMQ, vichar.FCCB} {
		for _, pt := range kernelSweepCells() {
			cfg := kernelBenchConfig(arch, 8, pt.Rate, pt.Workers)
			b.Run(fmt.Sprintf("%s/rate=%.2f/workers=%d", arch, pt.Rate, pt.Workers), func(b *testing.B) {
				runCell(b, cfg)
			})
		}
	}
	// Mesh-scaling cells: a fixed number of Steps (b.N, so
	// -benchtime Nx fixes it) after kernelWarmupCycles untimed ones.
	// They also exercise the route computation on its largest meshes.
	for _, pt := range kernelEqualLoad {
		for _, workers := range []int{0, 1, 2} {
			cfg := kernelBenchConfig(vichar.ViChaR, pt.Dim, pt.Rate, workers)
			b.Run(fmt.Sprintf("%s/mesh=%dx%d/rate=%.2f/workers=%d", vichar.ViChaR, pt.Dim, pt.Dim, pt.Rate, workers), func(b *testing.B) {
				s, err := vichar.NewSimulator(cfg)
				if err != nil {
					b.Fatal(err)
				}
				defer s.Close()
				for i := 0; i < kernelWarmupCycles; i++ {
					s.Step()
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Step()
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cfg.Nodes()), "ns/router-cycle")
			})
		}
	}
}

// BenchmarkNewSimulator measures construction alone — validation,
// arena, route computation, wiring — the cost a sweep pays per point
// and a restore per branch (the benchmark's setup_s): ViC-16 and
// GEN-16 on the paper's 8x8, and ViC-16 on 16x16 and 32x32, where a
// cost that grows faster than the node count would show, plus the
// observed 8x8 ViC-16 (Metrics and TraceEvents 65536, the observed8x8
// workload's configuration), which builds the registry and the event
// recorders besides. `make profile` samples the 16x16 and the observed
// cells.
func BenchmarkNewSimulator(b *testing.B) {
	cells := []struct {
		arch     vichar.BufferArch
		dim      int
		observed bool
	}{{vichar.ViChaR, 8, false}, {vichar.Generic, 8, false}, {vichar.ViChaR, 16, false}, {vichar.ViChaR, 32, false}, {vichar.ViChaR, 8, true}}
	for _, c := range cells {
		cfg := kernelBenchConfig(c.arch, c.dim, kernelMidRate, 1)
		name := fmt.Sprintf("%s/mesh=%dx%d", c.arch, c.dim, c.dim)
		if c.observed {
			cfg.Metrics, cfg.TraceEvents = true, 65536
			name += "/observed"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := vichar.NewSimulator(cfg)
				if err != nil {
					b.Fatal(err)
				}
				s.Close()
			}
		})
	}
}

// BenchmarkAblationSpeculative compares the baseline 4-stage pipeline
// against the speculative 3-stage organization (Peh & Dally, HPCA
// 2001) on the ViChaR router.
func BenchmarkAblationSpeculative(b *testing.B) {
	run := func(spec bool) float64 {
		cfg := vichar.DefaultConfig()
		cfg.Arch = vichar.ViChaR
		cfg.Speculative = spec
		cfg.InjectionRate = 0.25
		cfg.WarmupPackets, cfg.MeasurePackets = 1_000, 5_000
		cfg.MaxCycles = 80_000
		cfg.Seed = 99
		res, err := vichar.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return res.AvgLatency
	}
	var base, spec float64
	for i := 0; i < b.N; i++ {
		base = run(false)
		spec = run(true)
	}
	b.ReportMetric(base, "lat-4stage")
	b.ReportMetric(spec, "lat-3stage-spec")
}
