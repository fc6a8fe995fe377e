package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"vichar"
)

// options are the harness settings shared by every mode.
type options struct {
	seed    int64
	seconds float64
	// smoke divides every quota by 50 and runs one pass: seconds, not
	// minutes, for tests that only need the code paths exercised.
	smoke bool
	// outDir receives the span trace and result files.
	outDir string
	// exe is the harness binary each pass re-executes so that heap and
	// VmHWM start fresh; empty runs passes in this process (tests).
	exe string
}

// Run discipline: every host-time end-to-end figure is the median of
// timedPasses passes; setup_s is the median of setupReps
// constructions per configuration, its spread taken over setupGroups
// group medians.
const (
	timedPasses = 3
	setupReps   = 21
	setupGroups = 3
	smokeShrink = 50
	passTimeout = 170 * time.Second
)

func (o options) scale() float64 {
	s := quotaFactor * o.seconds / 10
	if o.smoke {
		s /= smokeShrink
	}
	return s
}

func (o options) passes() int {
	if o.smoke {
		return 1
	}
	return timedPasses
}

func (o options) spec(w *workload) passSpec {
	return passSpec{Workload: w.name, Seed: o.seed, Scale: o.scale()}
}

// workloadReport is everything one workload produced.
type workloadReport struct {
	Workload  string             `json:"workload"`
	EndToEnd  map[string]summary `json:"end_to_end,omitempty"`
	SimDigest string             `json:"sim_digest"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	// Operations: simulation runs to completion plus harness checks.
	Attempted int        `json:"attempted"`
	Failed    int        `json:"failed"`
	FailedOps []opResult `json:"failed_ops,omitempty"`
}

// add accounts finished operations to the report.
func (r *workloadReport) add(ops ...opResult) {
	for _, o := range ops {
		r.Attempted++
		if o.Err != "" {
			r.Failed++
			r.FailedOps = append(r.FailedOps, o)
		}
	}
}

// check records a harness check as one operation.
func (r *workloadReport) check(name string, err error) {
	o := opResult{Name: name}
	if err != nil {
		o.Err = err.Error()
	}
	r.add(o)
}

// isolatedPass runs one pass in a fresh child process (or in this one
// when no binary is configured).
func isolatedPass(spec passSpec, o options) (passResult, error) {
	if o.exe == "" {
		return runPass(spec)
	}
	arg, err := json.Marshal(spec)
	if err != nil {
		return passResult{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), passTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, o.exe, "-child", string(arg))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return passResult{}, fmt.Errorf("pass %s: %w", spec.Workload, err)
	}
	var res passResult
	if err := json.Unmarshal(bytes.TrimSpace(out), &res); err != nil {
		return passResult{}, fmt.Errorf("pass %s: decode result: %w", spec.Workload, err)
	}
	return res, nil
}

// childMain is the re-executed side of isolatedPass.
func childMain(arg string) error {
	var spec passSpec
	if err := json.Unmarshal([]byte(arg), &spec); err != nil {
		return fmt.Errorf("decode pass spec: %w", err)
	}
	res, err := runPass(spec)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// measureSetup times vichar.NewSimulator (validate, arena, route
// tables, wiring) for every configuration the workload constructs.
func measureSetup(w *workload, o options) (summary, error) {
	reps, groups := setupReps, setupGroups
	if o.smoke {
		reps, groups = 3, 1
	}
	per := reps / groups
	total := 0.0
	byGroup := make([]float64, groups)
	for _, b := range w.configs(o.spec(w)) {
		times := make([]float64, reps)
		for i := range times {
			// Start every construction from a collected heap: a GC cycle
			// landing inside a ~1 ms construction doubles it.
			runtime.GC()
			t0 := now()
			sim, err := vichar.NewSimulator(b.cfg)
			times[i] = since(t0)
			if err != nil {
				return summary{}, err
			}
			sim.Close()
		}
		total += median(times) * float64(b.count)
		for g := range byGroup {
			byGroup[g] += median(times[g*per:(g+1)*per]) * float64(b.count)
		}
	}
	s := summarize(byGroup)
	s.Median = total
	return s, nil
}

// measureEndToEnd runs the workload's untraced passes and reduces
// them to the end-to-end metrics.
func measureEndToEnd(w *workload, o options) (*workloadReport, error) {
	rep := &workloadReport{Workload: w.name, EndToEnd: map[string]summary{}}
	setup, err := measureSetup(w, o)
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	rep.EndToEnd["setup_s"] = setup

	var passes []passResult
	for i := 0; i < o.passes(); i++ {
		spec := o.spec(w)
		spec.Verify = i == 0
		res, err := isolatedPass(spec, o)
		if err != nil {
			return nil, err
		}
		passes = append(passes, res)
		rep.add(res.Ops...)
	}
	first := passes[0]
	rep.SimDigest = first.Digest
	column := func(pick func(*passResult) float64) summary {
		xs := make([]float64, len(passes))
		for i := range passes {
			xs[i] = pick(&passes[i])
		}
		return summarize(xs)
	}
	rep.EndToEnd["wall_s"] = column(func(p *passResult) float64 { return p.WallS })
	rep.EndToEnd["router_cycles_per_s"] = column(func(p *passResult) float64 { return p.RouterCycles / p.WallS })
	rep.EndToEnd["peak_rss_mb"] = column(func(p *passResult) float64 { return p.PeakRSSMB })
	rep.EndToEnd["sim_avg_latency_cycles"] = column(func(p *passResult) float64 { return p.AvgLatency })
	rep.EndToEnd["sim_p99_latency_cycles"] = column(func(p *passResult) float64 { return p.P99Latency })
	rep.EndToEnd["sim_throughput_flits_per_cycle"] = column(func(p *passResult) float64 { return p.Throughput })

	// Simulated time is deterministic for a seed: every pass must
	// repeat the first exactly.
	var drift error
	for i := range passes[1:] {
		if p := &passes[i+1]; p.Digest != first.Digest || p.AvgLatency != first.AvgLatency ||
			p.P99Latency != first.P99Latency || p.Throughput != first.Throughput {
			drift = fmt.Errorf("pass %d simulated differently from pass 1 (digest %.12s vs %.12s)", i+2, p.Digest, first.Digest)
		}
	}
	rep.check("passes repeat exactly", drift)
	return rep, nil
}

// traceFile is the span trace written when a traced run ends.
type traceFile struct {
	Provenance provenance         `json:"provenance"`
	Workload   string             `json:"workload"`
	TracedWall float64            `json:"traced_wall_s"`
	SelfTimes  map[string]float64 `json:"self_time_s"`
	Spans      []span             `json:"spans"`
}

// tracedPass runs the workload's traced pass.
func tracedPass(w *workload, o options) (passResult, error) {
	spec := o.spec(w)
	spec.Traced = true
	return isolatedPass(spec, o)
}

// measureLayers reduces a traced pass and runs the isolated layer
// drives. untracedWall and refDigest come from untraced passes of the
// same workload: tracing must not perturb results, and the wall-time
// difference is the tracing overhead.
func measureLayers(w *workload, o options, rep *workloadReport, traced passResult, untracedWall float64, refDigest string) error {
	rep.add(traced.Ops...)
	rep.PerLayer = map[string]float64{}
	for _, m := range perLayer {
		rep.PerLayer[m.name] = 0
	}
	for name, v := range traced.Layers {
		rep.PerLayer[name] = v
	}

	cfg := w.configs(o.spec(w))[0].cfg
	size := 1.0
	if o.smoke {
		size /= smokeShrink
	}
	driven, ops := runDrives(cfg, size)
	rep.add(ops...)
	for name, v := range driven {
		rep.PerLayer[name] = v
	}
	rep.PerLayer["network.step_ns_per_router"] = rep.PerLayer["network.step_ns_p50"] / float64(cfg.Nodes())
	rep.PerLayer["trace_overhead_pct"] = 100 * (traced.WallS - untracedWall) / untracedWall

	var mismatch error
	if traced.Digest != refDigest {
		mismatch = fmt.Errorf("traced pass digest %.12s differs from the untraced pass's %.12s", traced.Digest, refDigest)
	}
	rep.check("tracing leaves results untouched", mismatch)

	self := selfTimes(traced.Spans)
	sum := 0.0
	for _, s := range self {
		sum += s
	}
	root := rootTime(traced.Spans)
	var gap error
	if root <= 0 || sum < 0.95*root || sum > 1.05*root {
		gap = fmt.Errorf("span self times sum to %.4f s, traced wall is %.4f s", sum, root)
	}
	rep.check("span self times cover the traced wall", gap)

	for name := range rep.PerLayer {
		if metricByName(perLayer, name) == nil {
			rep.check("per-layer metric table", fmt.Errorf("harness produced unlisted metric %q", name))
		}
	}
	return writeJSON(filepath.Join(o.outDir, "trace-"+w.name+".json"), traceFile{
		Provenance: currentProvenance(o),
		Workload:   w.name,
		TracedWall: root,
		SelfTimes:  self,
		Spans:      traced.Spans,
	})
}

// runTraced is the driver's --trace 1 run: the traced pass between
// two untraced reference passes (so steady host drift cancels out of
// trace_overhead_pct), then the drives.
func runTraced(w *workload, o options) (*workloadReport, error) {
	rep := &workloadReport{Workload: w.name}
	var passes [3]passResult
	for i := range passes {
		var err error
		if i == 1 {
			passes[i], err = tracedPass(w, o)
		} else {
			passes[i], err = isolatedPass(o.spec(w), o)
			rep.add(passes[i].Ops...)
		}
		if err != nil {
			return nil, err
		}
	}
	rep.SimDigest = passes[0].Digest
	return rep, measureLayers(w, o, rep, passes[1], (passes[0].WallS+passes[2].WallS)/2, passes[0].Digest)
}

// runComplete measures a workload in full: end to end, then traced
// against the end-to-end passes' median wall time.
func runComplete(w *workload, o options) (*workloadReport, error) {
	rep, err := measureEndToEnd(w, o)
	if err != nil {
		return nil, err
	}
	traced, err := tracedPass(w, o)
	if err != nil {
		return nil, err
	}
	return rep, measureLayers(w, o, rep, traced, rep.EndToEnd["wall_s"].Median, rep.SimDigest)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
