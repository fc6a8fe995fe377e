package main

import (
	"fmt"

	"vichar"
	"vichar/experiments"
)

// quotaFactor is the one common factor applied to every packet quota
// of ISSUE 11's workload table (which sized a pass at 3-5 s): at 0.75
// the three passes of a run measure for about run_seconds (10 s) on
// the 2-vCPU reference host. --seconds scales it linearly.
const quotaFactor = 0.75

// builtConfig is one distinct configuration a pass constructs and how
// many simulators it builds with it; setup_s sums the median
// construction time of each, times its count.
type builtConfig struct {
	cfg   vichar.Config
	count int
}

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// configs lists what the pass constructs; the first entry is the
	// representative configuration the isolated layer drives take
	// their parameters (arch, slots, mesh, rate) from.
	configs func(spec passSpec) []builtConfig
	// run performs the pass: the timed section, then — on a Verify
	// pass — the workload's untimed cross-checks.
	run func(c *passCtx)
}

// workloads is the benchmark's fixed workload table, in report order.
// All are closed loops over simulations on the paper's platform: 8x8
// mesh unless stated, 16 slots/port, XY routing, uniform-random
// traffic to normal-random destinations, 4-flit packets.
var workloads = []workload{
	{
		name:    "paper_sweep",
		why:     "Fig 12a as users regenerate it: 40 points, GEN-16/ViC-16 at every load, fanned out on 2 cores; the slowest points set the wall time",
		configs: sweepConfigs,
		run:     runPaperSweep,
	},
	singleRuns("sat8x8_vic",
		"ViC-16 at heavy load, every router busy: router VA/SA and core UBS do the work, traffic and worklist little; the BENCH_kernel.json lineage",
		nil,
		func(spec passSpec) vichar.Config { return platform(spec, vichar.ViChaR, heavyRate, 40_000, 260_000) }),
	singleRuns("sat8x8_fixed",
		"GEN-16, DAMQ-16, FC-CB-16 at heavy load: static buffers and the generic VA/SA fork work, core does none; the bypass for ViChaR-path changes",
		nil,
		func(spec passSpec) vichar.Config { return platform(spec, vichar.Generic, heavyRate, 15_000, 75_000) },
		func(spec passSpec) vichar.Config { return platform(spec, vichar.DAMQ, heavyRate, 15_000, 75_000) },
		func(spec passSpec) vichar.Config { return platform(spec, vichar.FCCB, heavyRate, 15_000, 75_000) }),
	singleRuns("lowload8x8_vic",
		"ViC-16 at rate 0.05: most routers sleep, so worklist bookkeeping, link delivery, traffic.Tick and the serial phase dominate",
		nil,
		func(spec passSpec) vichar.Config { return platform(spec, vichar.ViChaR, 0.05, 30_000, 150_000) }),
	singleRuns("mesh16_w2",
		"ViC-16 on 16x16 below saturation with Workers=2: the large-mesh cliff and shard/barrier cost live here and nowhere else",
		nil, mesh16Config),
	singleRuns("txn_dram",
		"NIU transactions to DRAM-edge tiles: two VC classes, per-class UBS reserves and a serial txn.Tick; shows a single-class fast path's cost",
		checkTxn, txnConfig),
	{
		name:    "observed8x8",
		why:     "sat8x8_vic with Metrics and TraceEvents 65536 at identical quotas: its router_cycles_per_s over sat8x8_vic's is the observability tax",
		configs: func(spec passSpec) []builtConfig { return []builtConfig{{cfg: observedConfig(spec), count: 1}} },
		run:     runObserved,
	},
	{
		name:    "checkpoint_branch",
		why:     "ViC-16 under RunCheckpointed(250), then 8 RestoreWith branches at other loads: snapshot writes beside restore reads, a construction per branch",
		configs: checkpointConfigs,
		run:     runCheckpointBranch,
	},
}

// heavyRate is the offered load of the sat8x8 family, in
// flits/node/cycle: 78-85 % of the four organizations' saturation
// throughput (0.35-0.38), which keeps every router awake every cycle.
// ISSUE 11 asked for 0.40, past saturation; there source queues grow
// for the whole run and latency hangs on the small difference between
// offered and accepted load, so over ten seeds sim_p99_latency_cycles
// spread 26 % (quartile distance over median) and
// sim_avg_latency_cycles 10 % - wider than the benchmark contract lets
// any bound be. At 0.30 they spread 3 % and 1 %.
const heavyRate = 0.30

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// platform returns the paper's evaluation platform with the given
// buffer organization (16 slots/port), offered load and ISSUE-table
// quotas, scaled and seeded for the pass.
func platform(spec passSpec, arch vichar.BufferArch, rate float64, warmup, measure int) vichar.Config {
	cfg := vichar.DefaultConfig()
	cfg.Arch = arch
	cfg.InjectionRate = rate
	cfg.WarmupPackets = spec.quota(warmup)
	cfg.MeasurePackets = spec.quota(measure)
	cfg.Seed += spec.Seed
	return cfg
}

func mesh16Config(spec passSpec) vichar.Config {
	cfg := platform(spec, vichar.ViChaR, 0.15, 15_000, 60_000)
	cfg.Width, cfg.Height = 16, 16
	cfg.Workers = 2
	return cfg
}

// txnConfig is the ext-transactions mix: the transaction layer is the
// sole traffic source.
func txnConfig(spec passSpec) vichar.Config {
	cfg := platform(spec, vichar.ViChaR, 0, 40_000, 260_000)
	cfg.MaxCycles = 1_000_000
	cfg.Txn = vichar.Txn{
		Enabled:    true,
		Rate:       0.04,
		ReadFrac:   0.70,
		WriteFrac:  0.25,
		AtomicFrac: 0.05,
		PostedFrac: 0.5,
		MemEdge:    true,
	}
	return cfg
}

func observedConfig(spec passSpec) vichar.Config {
	cfg := platform(spec, vichar.ViChaR, heavyRate, 40_000, 260_000)
	cfg.Metrics = true
	cfg.TraceEvents = 65536
	return cfg
}

// singleRuns is a workload that runs each of its configurations to
// completion, back to back, one operation each; check (optional) adds
// a per-run check.
func singleRuns(name, why string, check func(cfg *vichar.Config, res *vichar.Results) error, builders ...func(spec passSpec) vichar.Config) workload {
	configs := func(spec passSpec) []builtConfig {
		out := make([]builtConfig, len(builders))
		for i, b := range builders {
			out[i] = builtConfig{cfg: b(spec), count: 1}
		}
		return out
	}
	run := func(c *passCtx) {
		for _, b := range configs(c.spec) {
			cfg := b.cfg
			c.op(fmt.Sprintf("run %s@%g", cfg.Label(), cfg.InjectionRate), func() error {
				rec, err := c.simulate(cfg, false)
				if err == nil && check != nil {
					err = check(&cfg, &rec.res)
				}
				return err
			})
		}
		c.markTimedEnd()
	}
	return workload{name: name, why: why, configs: configs, run: run}
}

// checkTxn: transactions retire, and no more stay in flight than the
// per-node windows allow.
func checkTxn(cfg *vichar.Config, res *vichar.Results) error {
	t := res.Txn
	if t == nil {
		return fmt.Errorf("transaction layer produced no results")
	}
	if limit := int64(cfg.Txn.EffectiveWindow() * cfg.Nodes()); t.Retired <= 0 || t.Issued-t.Retired > limit {
		return fmt.Errorf("issued %d, retired %d: want retirements and at most %d in flight", t.Issued, t.Retired, limit)
	}
	return nil
}

// runObserved is sat8x8_vic with the observability layer on. Its
// Verify pass also runs the unobserved twin: the layer must not
// perturb results, so the digests must match.
func runObserved(c *passCtx) {
	cfg := observedConfig(c.spec)
	var observed runRecord
	c.op("run observed "+cfg.Label(), func() error {
		var err error
		observed, err = c.simulate(cfg, false)
		return err
	})
	c.markTimedEnd()
	if !c.spec.Verify {
		return
	}
	c.op("twin sat8x8_vic digest", func() error {
		twin := cfg
		twin.Metrics, twin.TraceEvents = false, 0
		rec, err := c.simulate(twin, false)
		if err == nil && rec.digest != observed.digest {
			err = fmt.Errorf("observed run's sim_digest differs from the unobserved twin's")
		}
		return err
	})
}

// sweepOptions is paper_sweep's protocol.
func sweepOptions(spec passSpec) experiments.Options {
	return experiments.Options{
		WarmupPackets:  spec.quota(3_000),
		MeasurePackets: spec.quota(9_000),
		MaxCycles:      120_000,
		Workers:        2,
	}
}

// sweepExperiment is Fig 12a with the pass's seed added to every
// point's own (decorrelated) seed.
func sweepExperiment(spec passSpec) *experiments.Experiment {
	e := experiments.Fig12a()
	for i := range e.Runs {
		e.Runs[i].Config.Seed += spec.Seed
	}
	return e
}

// sweepPointConfig is the configuration Execute runs for one point.
func sweepPointConfig(spec passSpec, run *experiments.Run) vichar.Config {
	opts := sweepOptions(spec)
	cfg := run.Config
	cfg.WarmupPackets, cfg.MeasurePackets, cfg.MaxCycles = opts.WarmupPackets, opts.MeasurePackets, opts.MaxCycles
	return cfg
}

// The sweep's ViC-NR-16 point at rate 0.35 stands for it in the layer
// drives; over GEN-NR-16's at the same rate it is the paper's latency
// claim, stats.vic_over_gen_latency_r035.
const (
	sweepVicSeries = "ViC-NR-16"
	sweepGenSeries = "GEN-NR-16"
	sweepClaimRate = 0.35
)

func sweepConfigs(spec passSpec) []builtConfig {
	e := sweepExperiment(spec)
	out := make([]builtConfig, 0, len(e.Runs))
	for i := range e.Runs {
		b := builtConfig{cfg: sweepPointConfig(spec, &e.Runs[i]), count: 1}
		if e.Runs[i].Series == sweepVicSeries && e.Runs[i].X == sweepClaimRate {
			out = append([]builtConfig{b}, out...)
		} else {
			out = append(out, b)
		}
	}
	return out
}

// pointKey names one sweep point.
func pointKey(series string, x float64) string { return fmt.Sprintf("%s@%g", series, x) }

// pointAt returns the series' point at sweep coordinate x.
func pointAt(out *experiments.Outcome, series string, x float64) *experiments.Point {
	s := out.SeriesByName(series)
	if s == nil {
		return nil
	}
	for i := range s.Points {
		if s.Points[i].X == x {
			return &s.Points[i]
		}
	}
	return nil
}

// runPaperSweep executes Fig 12a through the experiments fan-out; each
// point is one operation. The traced pass then runs every point solo,
// which both attributes the sweep's wall time to points and checks
// that a stepped, traced run reproduces the fan-out's results.
func runPaperSweep(c *passCtx) {
	e := sweepExperiment(c.spec)
	opts := sweepOptions(c.spec)

	sp := c.tr.begin("experiments.execute")
	t0 := now()
	out, err := e.Execute(opts)
	execWall := since(t0)
	c.tr.end(sp)
	if err != nil {
		c.op("execute fig12a", func() error { return err })
		c.markTimedEnd()
		return
	}
	c.wall += execWall

	saturated := 0
	nodes := float64(e.Runs[0].Config.Nodes())
	digests := map[string][32]byte{}
	for _, s := range out.Series {
		for i := range s.Points {
			p := &s.Points[i]
			c.op("point "+pointKey(s.Name, p.X), func() error {
				rec := runRecord{res: p.Results}
				var err error
				if rec.digest, err = runDigest(&p.Results, nil); err != nil {
					return err
				}
				digests[pointKey(s.Name, p.X)] = rec.digest
				c.rc += float64(p.Results.TotalCycles) * nodes
				c.runs = append(c.runs, rec)
				c.digest.Write(rec.digest[:])
				if p.Results.Saturated {
					saturated++
				} else if p.Results.MeasuredPackets != int64(opts.MeasurePackets) {
					return fmt.Errorf("measured %d packets, want %d", p.Results.MeasuredPackets, opts.MeasurePackets)
				}
				return nil
			})
		}
	}
	c.extra["experiments.saturated_points"] = float64(saturated)
	vic, gen := pointAt(out, sweepVicSeries, sweepClaimRate), pointAt(out, sweepGenSeries, sweepClaimRate)
	if vic != nil && gen != nil && gen.Results.AvgLatency > 0 {
		c.extra["stats.vic_over_gen_latency_r035"] = vic.Results.AvgLatency / gen.Results.AvgLatency
	}
	c.markTimedEnd()
	if c.tr == nil {
		return
	}

	var solo []float64
	for i := range e.Runs {
		run := &e.Runs[i]
		key := pointKey(run.Series, run.X)
		c.op("solo "+key, func() error {
			sp := c.tr.begin("experiments.point")
			t0 := now()
			rec, err := c.simulate(sweepPointConfig(c.spec, run), true)
			solo = append(solo, since(t0))
			c.tr.end(sp)
			if err != nil {
				return err
			}
			// Execute hands back Results without latencies, so the
			// comparison hashes the solo run the same way.
			d, err := runDigest(&rec.res, nil)
			if err == nil && d != digests[key] {
				err = fmt.Errorf("stepped solo run differs from the fan-out's result")
			}
			return err
		})
	}
	sum := 0.0
	for _, s := range solo {
		sum += s
	}
	_, c.extra["experiments.point_s_max"] = minMax(solo)
	c.extra["experiments.point_s_p50"] = median(solo)
	c.extra["experiments.parallel_efficiency"] = sum / (float64(opts.Workers) * execWall)
}

// Checkpoint-branch protocol.
const (
	checkpointEvery    = 250 // cycles between snapshots at quotaFactor scale
	minCheckpointEvery = 25  // floor for very short (smoke) passes
	branchCount        = 8   // RestoreWith branches
	// Branch i runs at offered load (i+1) x branchRateStep: 0.04 .. 0.32,
	// all below saturation. (ISSUE 11's 0.05 .. 0.40 put two branches at
	// and past it, where a 7 500-packet window's p99 varied 22 % with
	// the seed.)
	branchRateStep = 0.04
)

func checkpointConfig(spec passSpec) vichar.Config {
	return platform(spec, vichar.ViChaR, 0.30, 40_000, 160_000)
}

// checkpointConfigs: the straight-through simulator and one restored
// simulator per branch.
func checkpointConfigs(spec passSpec) []builtConfig {
	return []builtConfig{{cfg: checkpointConfig(spec), count: 1 + branchCount}}
}

// runCheckpointBranch runs the base configuration under periodic
// checkpoints, then branches eight runs at other offered loads off a
// mid-warm-up snapshot — the cut experiments.BranchSweep makes, so
// each branch finishes its warm-up at its own rate and then measures
// its full quota. (A snapshot from inside the measurement window
// would already hold more measured packets than a branch's quota.)
// The Verify pass restores the mid-run snapshot without overrides and
// requires the straight-through digest back.
func runCheckpointBranch(c *passCtx) {
	cfg := checkpointConfig(c.spec)
	// The interval scales with the quotas, so a pass takes ~170
	// snapshots at any --seconds.
	every := int64(checkpointEvery*c.spec.Scale/quotaFactor + 0.5)
	if every < minCheckpointEvery {
		every = minCheckpointEvery
	}
	total := int64(cfg.WarmupPackets + cfg.MeasurePackets)

	var sim *vichar.Simulator
	var branchSnap, midSnap []byte
	var straight runRecord
	saves, snapBytes := 0, 0
	ck := &checkpointer{every: every, sink: func(cycle int64, data []byte) error {
		saves++
		snapBytes = len(data)
		switch ejected := sim.Ejected(); {
		case ejected < int64(cfg.WarmupPackets)/2:
			branchSnap, midSnap = data, data
		case ejected < total/2:
			midSnap = data
		}
		return nil
	}}
	c.op("run checkpointed "+cfg.Label(), func() error {
		var err error
		if sim, err = c.construct(cfg); err != nil {
			return err
		}
		straight, err = c.finish(sim, false, ck)
		return err
	})
	c.extra["snap.saves"] = float64(saves)
	c.extra["snap.bytes"] = float64(snapBytes)
	if branchSnap == nil {
		c.op("branch snapshot", func() error {
			return fmt.Errorf("no checkpoint landed before half the warm-up (%d packets)", cfg.WarmupPackets/2)
		})
		c.markTimedEnd()
		return
	}

	measure := c.spec.quota(10_000)
	restore := func(blob []byte, o vichar.Overrides) (*vichar.Simulator, error) {
		sp := c.tr.begin("snap.restore")
		defer c.tr.end(sp)
		return vichar.RestoreWith(blob, o)
	}
	for i := 0; i < branchCount; i++ {
		rate := branchRateStep * float64(i+1)
		c.op(fmt.Sprintf("branch @%.2f", rate), func() error {
			t0 := now()
			s, err := restore(branchSnap, vichar.Overrides{InjectionRate: &rate, MeasurePackets: &measure})
			c.wall += since(t0)
			if err != nil {
				return err
			}
			_, err = c.finish(s, false, nil)
			return err
		})
	}
	c.markTimedEnd()
	if c.tr != nil {
		c.extra["snap.restore_s"] = median(spanDurations(c.tr.spans, "snap.restore"))
		c.extra["snap.save_s"] = median(spanDurations(c.tr.spans, "snap.save"))
	}
	if !c.spec.Verify {
		return
	}
	c.op("restore reproduces straight-through digest", func() error {
		s, err := restore(midSnap, vichar.Overrides{})
		if err != nil {
			return err
		}
		rec, err := c.finish(s, false, nil)
		if err == nil && rec.digest != straight.digest {
			err = fmt.Errorf("restored run's sim_digest differs from the straight-through run's")
		}
		return err
	})
}

// spanDurations returns the duration of every span called name.
func spanDurations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}
