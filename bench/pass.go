package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"runtime"
	"strconv"
	"strings"

	"vichar"
)

// passSpec selects one pass of one workload. It crosses the process
// boundary as JSON: every timed pass runs in a fresh child process so
// heap and VmHWM do not leak between passes or workloads.
type passSpec struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Scale    float64 `json:"scale"`
	// Traced records spans and per-layer counts; end-to-end figures
	// come from untraced passes only.
	Traced bool `json:"traced"`
	// Verify adds the workload's untimed cross-checks (reference twin,
	// no-override restore) after the timed section.
	Verify bool `json:"verify"`
}

// opResult is one operation: a simulation run to completion or a
// harness check. A non-empty Err marks it failed.
type opResult struct {
	Name string `json:"name"`
	Err  string `json:"err,omitempty"`
}

// passResult is what one pass reports back to the parent.
type passResult struct {
	WallS        float64            `json:"wall_s"`
	RouterCycles float64            `json:"router_cycles"`
	PeakRSSMB    float64            `json:"peak_rss_mb"`
	AvgLatency   float64            `json:"sim_avg_latency_cycles"`
	P99Latency   float64            `json:"sim_p99_latency_cycles"`
	Throughput   float64            `json:"sim_throughput_flits_per_cycle"`
	Digest       string             `json:"sim_digest"`
	Ops          []opResult         `json:"ops"`
	Layers       map[string]float64 `json:"layers"`
	Spans        []span             `json:"spans,omitempty"`
}

// stepChunk is the number of cycles behind one network.step span and
// one step-time sample.
const stepChunk = 256

// checkpointer makes a run hand sink a snapshot roughly every `every`
// cycles, as Simulator.RunCheckpointed does.
type checkpointer struct {
	every int64
	sink  func(cycle int64, data []byte) error
}

// runRecord is one finished simulation of a pass.
type runRecord struct {
	res    vichar.Results
	digest [sha256.Size]byte
}

// passCtx carries one pass: its parameters, the tracer (nil when
// untraced) and everything the workload's runs accumulate.
type passCtx struct {
	spec passSpec
	tr   *tracer
	// untimed marks runs outside the timed section (verification
	// twins, solo sweep points): they are operations, but add nothing
	// to wall time, router-cycles, the simulated metrics or the digest.
	untimed bool

	wall   float64
	rc     float64
	runs   []runRecord
	digest hash.Hash
	ops    []opResult
	rssMB  float64

	// Traced-pass accumulators.
	stepNs       []float64
	mallocs      uint64
	mallocCycles int64
	extra        map[string]float64
}

func newPassCtx(spec passSpec) *passCtx {
	c := &passCtx{spec: spec, digest: sha256.New(), extra: map[string]float64{}}
	if spec.Traced {
		c.tr = newTracer(spec.Workload)
	}
	return c
}

// quota scales a packet count by the pass's common factor.
func (spec passSpec) quota(n int) int {
	q := int(float64(n)*spec.Scale + 0.5)
	if q < 1 {
		q = 1
	}
	return q
}

// attempt runs f as one operation; an error or a panic fails it.
func attempt(name string, f func() error) (o opResult) {
	o.Name = name
	defer func() {
		if r := recover(); r != nil {
			o.Err = fmt.Sprint("panic: ", r)
		}
	}()
	if err := f(); err != nil {
		o.Err = err.Error()
	}
	return o
}

// op runs f as one operation of the pass.
func (c *passCtx) op(name string, f func() error) {
	c.ops = append(c.ops, attempt(name, f))
}

// runDigest hashes a run's canonical Results JSON and, when the
// simulator is at hand, its per-packet latencies.
func runDigest(res *vichar.Results, latencies []int64) ([sha256.Size]byte, error) {
	data, err := json.Marshal(res)
	if err != nil {
		return [sha256.Size]byte{}, fmt.Errorf("marshal results: %w", err)
	}
	h := sha256.New()
	h.Write(data)
	var buf [8]byte
	for _, l := range latencies {
		binary.LittleEndian.PutUint64(buf[:], uint64(l))
		h.Write(buf[:])
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out, nil
}

// construct builds the simulator for cfg under a vichar.new span; the
// traced pass also times a route-table build of the same shape beside
// it (routing.build), the part of construction that grows as nodes².
func (c *passCtx) construct(cfg vichar.Config) (*vichar.Simulator, error) {
	sp := c.tr.begin("vichar.new")
	sim, err := vichar.NewSimulator(cfg)
	c.tr.end(sp)
	if err == nil && c.tr != nil {
		sp = c.tr.begin("routing.build")
		buildRouteTables(&cfg)
		c.tr.end(sp)
	}
	return sim, err
}

// simulate builds one simulator for cfg and runs it to completion.
func (c *passCtx) simulate(cfg vichar.Config, allowSat bool) (runRecord, error) {
	sim, err := c.construct(cfg)
	if err != nil {
		return runRecord{}, err
	}
	return c.finish(sim, allowSat, nil)
}

// finish runs a constructed (or restored) simulator to completion,
// checks the outcome and accounts it to the pass.
func (c *passCtx) finish(sim *vichar.Simulator, allowSat bool, ck *checkpointer) (runRecord, error) {
	defer sim.Close()
	cfg := sim.Config()
	var before, after runtime.MemStats
	if c.tr != nil {
		runtime.ReadMemStats(&before)
	}
	t0 := now()
	var res vichar.Results
	var err error
	switch {
	case c.tr != nil:
		res, err = c.runTraced(sim, ck)
	case ck != nil:
		res, err = sim.RunCheckpointed(ck.every, ck.sink)
	default:
		res = sim.Run()
	}
	secs := since(t0)
	if err != nil {
		return runRecord{}, err
	}
	if c.tr != nil {
		runtime.ReadMemStats(&after)
		c.mallocs += after.Mallocs - before.Mallocs
		c.mallocCycles += res.TotalCycles
	}

	rec := runRecord{res: res}
	if rec.digest, err = runDigest(&res, sim.Latencies()); err != nil {
		return rec, err
	}
	if !c.untimed {
		c.wall += secs
		c.rc += float64(res.TotalCycles) * float64(cfg.Nodes())
		c.runs = append(c.runs, rec)
		c.digest.Write(rec.digest[:])
	}

	switch {
	case res.Saturated && !allowSat:
		return rec, fmt.Errorf("%s at rate %g hit its cycle cap (Saturated) on a workload that expects completion", res.Label, cfg.InjectionRate)
	case !res.Saturated && res.MeasuredPackets != int64(cfg.MeasurePackets):
		return rec, fmt.Errorf("%s measured %d packets, want %d", res.Label, res.MeasuredPackets, cfg.MeasurePackets)
	}
	return rec, reconcile(sim, &res)
}

// reconcile checks the live registry (when the run had one) against
// the run's Results: both count every ejected packet.
func reconcile(sim *vichar.Simulator, res *vichar.Results) error {
	snap, ok := sim.MetricsSnapshot()
	if !ok {
		return nil
	}
	if got := snap.Sum("vichar_packets_ejected_total"); got != uint64(res.EjectedPackets) {
		return fmt.Errorf("%s registry counts %d ejected packets, Results %d", res.Label, got, res.EjectedPackets)
	}
	return nil
}

// runTraced is Run (or RunCheckpointed) with spans: it steps the
// simulator in stepChunk-cycle chunks, one network.step span and one
// step-time sample each, until the ejection quota is near, then lets
// the closing Run call eject the remainder and finalize. Run steps
// before it tests the quota, so the chunks stop while at least one
// cycle's worth of ejections (one tail per node) is still owed.
func (c *passCtx) runTraced(sim *vichar.Simulator, ck *checkpointer) (vichar.Results, error) {
	cfg := sim.Config()
	total := int64(cfg.WarmupPackets + cfg.MeasurePackets)
	margin := int64(2 * cfg.Nodes())
	maxCycles := cfg.EffectiveMaxCycles()
	next := int64(0)
	if ck != nil {
		next = sim.Now() + ck.every
	}
	stepping := func() bool {
		return sim.Ejected()+margin < total && sim.Now()+1 < maxCycles
	}

	sp := c.tr.begin("simulate")
	for stepping() {
		ch := c.tr.begin("network.step")
		t0 := now()
		n := 0
		for n < stepChunk && stepping() && (ck == nil || sim.Now() < next) {
			sim.Step()
			n++
		}
		c.stepNs = append(c.stepNs, since(t0)*1e9/float64(n))
		c.tr.end(ch)
		if ck != nil && sim.Now() >= next {
			next = sim.Now() + ck.every
			s := c.tr.begin("snap.save")
			data, err := sim.Snapshot()
			c.tr.end(s)
			if err == nil {
				err = ck.sink(sim.Now(), data)
			}
			if err != nil {
				c.tr.end(sp)
				return vichar.Results{}, err
			}
		}
	}
	c.tr.end(sp)

	sp = c.tr.begin("finalize")
	defer c.tr.end(sp)
	if ck != nil {
		return sim.RunCheckpointed(ck.every, ck.sink)
	}
	return sim.Run(), nil
}

// markTimedEnd samples the process's peak resident set at the end of
// the timed section, before untimed verification runs can raise it.
func (c *passCtx) markTimedEnd() {
	c.untimed = true
	c.rssMB = peakRSSMB()
}

// peakRSSMB reads this process's VmHWM (0 where /proc is absent).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if fields := strings.Fields(line); len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// result reduces the pass to what the parent needs.
func (c *passCtx) result() passResult {
	r := passResult{
		WallS:        c.wall,
		RouterCycles: c.rc,
		PeakRSSMB:    c.rssMB,
		Digest:       hex.EncodeToString(c.digest.Sum(nil)),
		Ops:          c.ops,
		Layers:       c.extra,
	}
	if c.tr != nil {
		r.Spans = c.tr.spans
	}

	// Simulated-time figures are means over the pass's timed runs;
	// latencies skip runs that hit their cycle cap (their latency is
	// a function of the cap), unless every run did.
	mean := func(pick func(*vichar.Results) float64, keep func(*vichar.Results) bool) float64 {
		sum, n := 0.0, 0
		for i := range c.runs {
			if res := &c.runs[i].res; keep(res) {
				sum += pick(res)
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	all := func(*vichar.Results) bool { return true }
	completed := all
	for i := range c.runs {
		if !c.runs[i].res.Saturated {
			completed = func(res *vichar.Results) bool { return !res.Saturated }
			break
		}
	}
	perCycle := func(count func(*vichar.Results) uint64) func(*vichar.Results) float64 {
		return func(res *vichar.Results) float64 {
			if res.MeasureCycles == 0 {
				return 0
			}
			return float64(count(res)) / float64(res.MeasureCycles)
		}
	}
	r.AvgLatency = mean(func(res *vichar.Results) float64 { return res.AvgLatency }, completed)
	r.P99Latency = mean(func(res *vichar.Results) float64 { return res.P99Latency }, completed)
	r.Throughput = mean(func(res *vichar.Results) float64 { return res.Throughput }, all)

	l := r.Layers
	l["stats.queue_latency_cycles"] = mean(func(res *vichar.Results) float64 { return res.AvgQueueLatency }, completed)
	l["stats.network_latency_cycles"] = mean(func(res *vichar.Results) float64 { return res.AvgNetworkLatency }, completed)
	l["stats.max_channel_load"] = mean(func(res *vichar.Results) float64 { return res.MaxChannelLoad }, all)
	l["stats.link_flits_per_cycle"] = mean(perCycle(func(res *vichar.Results) uint64 { return res.Counters.LinkTraversals }), all)
	l["stats.buffer_writes_per_cycle"] = mean(perCycle(func(res *vichar.Results) uint64 { return res.Counters.BufferWrites }), all)
	l["core.inuse_vcs_per_port"] = mean(func(res *vichar.Results) float64 { return res.AvgInUseVCs }, all)
	l["core.occupancy_pct"] = mean(func(res *vichar.Results) float64 { return res.AvgOccupancy * 100 }, all)
	hasTxn := func(res *vichar.Results) bool { return res.Txn != nil }
	l["txn.issued"] = mean(func(res *vichar.Results) float64 { return float64(res.Txn.Issued) }, hasTxn)
	l["txn.retired"] = mean(func(res *vichar.Results) float64 { return float64(res.Txn.Retired) }, hasTxn)
	l["txn.avg_cycles"] = mean(func(res *vichar.Results) float64 { return res.Txn.AvgLatency }, hasTxn)
	l["txn.p99_cycles"] = mean(func(res *vichar.Results) float64 { return res.Txn.P99Latency }, hasTxn)

	if c.tr != nil {
		p50 := median(c.stepNs)
		pct, tail := tailPercentile(c.stepNs)
		l["network.step_ns_p50"] = p50
		l["network.step_ns_tail"] = tail
		l["network.step_tail_pct"] = pct
		l["network.step_samples"] = float64(len(c.stepNs))
		if c.mallocCycles > 0 {
			l["network.mallocs_per_cycle"] = float64(c.mallocs) / float64(c.mallocCycles)
		}
	}
	return r
}

// ratio is useful outcomes over attempts (0 when nothing was tried).
func ratio(useful, attempts uint64) float64 {
	if attempts == 0 {
		return 0
	}
	return float64(useful) / float64(attempts)
}

// runPass executes one pass in this process.
func runPass(spec passSpec) (passResult, error) {
	w := workloadByName(spec.Workload)
	if w == nil {
		return passResult{}, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	c := newPassCtx(spec)
	root := c.tr.begin("workload")
	w.run(c)
	c.tr.end(root)
	return c.result(), nil
}
