// Package experiments defines one runnable experiment per figure and
// table of the paper's evaluation (Section 4), plus a parallel sweep
// executor. Each experiment enumerates the simulations behind one
// paper artifact; Execute runs them across workers and assembles the
// series the paper plots.
//
// Experiments default to the paper's measurement protocol scaled
// down (quick mode); pass Paper() options to reproduce the full
// 100k-warm-up / 200k-measurement protocol.
package experiments

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"vichar"
)

// Metric names the Results field an experiment plots on its Y axis.
type Metric int

const (
	// Latency plots Results.AvgLatency (cycles).
	Latency Metric = iota
	// Throughput plots Results.Throughput (flits/cycle).
	Throughput
	// Occupancy plots Results.AvgOccupancy as a percentage.
	Occupancy
	// Power plots Results.AvgPowerWatts (W).
	Power
	// VCs plots Results.AvgInUseVCs (per port).
	VCs
	// TxnLatency plots Results.Txn.AvgLatency, the mean end-to-end
	// transaction latency (request creation to retirement, cycles).
	TxnLatency
	// TxnP99 plots Results.Txn.P99Latency, the transaction latency
	// tail (cycles).
	TxnP99
)

// String returns the axis label of the metric.
func (m Metric) String() string {
	switch m {
	case Latency:
		return "Latency (cycles)"
	case Throughput:
		return "Throughput (flits/cycle)"
	case Occupancy:
		return "% Buffer Occupancy"
	case Power:
		return "Avg. Power Cons. (W)"
	case VCs:
		return "Avg. # of In-Use VCs"
	case TxnLatency:
		return "Txn Latency (cycles)"
	case TxnP99:
		return "Txn p99 Latency (cycles)"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Value extracts the metric from finished results.
func (m Metric) Value(r *vichar.Results) float64 {
	switch m {
	case Latency:
		return r.AvgLatency
	case Throughput:
		return r.Throughput
	case Occupancy:
		return r.AvgOccupancy * 100
	case Power:
		return r.AvgPowerWatts
	case VCs:
		return r.AvgInUseVCs
	case TxnLatency:
		if r.Txn == nil {
			return 0
		}
		return r.Txn.AvgLatency
	case TxnP99:
		if r.Txn == nil {
			return 0
		}
		return r.Txn.P99Latency
	default:
		return 0
	}
}

// Run is one simulation within an experiment.
type Run struct {
	// Series is the legend label ("GEN-NR-16", "ViC-8", ...).
	Series string
	// X is the sweep coordinate (injection rate, buffer size, ...).
	X float64
	// Config is the full simulation configuration.
	Config vichar.Config
}

// Experiment enumerates the simulations behind one paper artifact.
type Experiment struct {
	// ID is the artifact identifier ("fig12a", "table1", ...).
	ID string
	// Title describes the artifact as the paper captions it.
	Title string
	// XLabel names the sweep coordinate.
	XLabel string
	// Metric selects the plotted Y value.
	Metric Metric
	// Runs are the simulations to perform.
	Runs []Run
}

// Point is one finished simulation within a series. With replicated
// execution, Y is the across-replicate mean, YErr its standard error,
// and Results the first replicate's full results.
type Point struct {
	X       float64
	Y       float64
	YErr    float64
	Results vichar.Results
}

// Series is one legend entry's sweep.
type Series struct {
	Name   string
	Points []Point
}

// Outcome is a fully executed experiment.
type Outcome struct {
	Experiment *Experiment
	Series     []Series
}

// SeriesByName returns the named series, or nil.
func (o *Outcome) SeriesByName(name string) *Series {
	for i := range o.Series {
		if o.Series[i].Name == name {
			return &o.Series[i]
		}
	}
	return nil
}

// Options control execution scale and parallelism.
type Options struct {
	// WarmupPackets / MeasurePackets override the per-run protocol
	// when positive.
	WarmupPackets  int
	MeasurePackets int
	// MaxCycles caps each run when positive.
	MaxCycles int64
	// Workers bounds parallel simulations; 0 means GOMAXPROCS. The
	// effective job-level parallelism is additionally capped so that
	// jobs x per-run kernel workers never exceeds GOMAXPROCS (see
	// jobWorkers). Whenever more than one simulation runs at once, a
	// run whose Config.Workers is 0 (one kernel lane per processor)
	// steps serially instead; a lone simulation keeps every lane.
	Workers int
	// KernelWorkers, when positive, sets each run's cycle-kernel
	// shard count (Config.Workers): the cycle kernel shards every
	// cycle that many ways, on at most GOMAXPROCS lanes. Results are
	// bit-identical at any setting; it trades run-level for cycle-level
	// parallelism. 0 keeps each run's own setting.
	KernelWorkers int
	// Seed overrides every run's seed when nonzero.
	Seed int64
	// Replicates repeats each run with derived seeds and reports the
	// across-replicate mean and standard error per point; values
	// below 2 mean single runs.
	Replicates int
	// Progress, when non-nil, is called after each finished run.
	Progress func(done, total int)
}

// Quick returns options for fast, shape-preserving runs (a few
// thousand packets per point); suitable for tests and exploration.
func Quick() Options {
	return Options{WarmupPackets: 2_000, MeasurePackets: 6_000, MaxCycles: 120_000}
}

// Paper returns the paper's full measurement protocol: 100,000
// warm-up and 200,000 measured ejections per point.
func Paper() Options {
	return Options{WarmupPackets: 100_000, MeasurePackets: 200_000}
}

// apply merges the options into a run's configuration.
func (o Options) apply(cfg vichar.Config) vichar.Config {
	if o.WarmupPackets > 0 {
		cfg.WarmupPackets = o.WarmupPackets
	}
	if o.MeasurePackets > 0 {
		cfg.MeasurePackets = o.MeasurePackets
	}
	if o.MaxCycles > 0 {
		cfg.MaxCycles = o.MaxCycles
	}
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	if o.KernelWorkers > 0 {
		cfg.Workers = o.KernelWorkers
	}
	return cfg
}

// jobWorkers computes the effective job-level parallelism: the
// requested worker count (0 meaning all of GOMAXPROCS), clamped to
// the job total, and capped so that job-level parallelism times the
// widest per-run cycle kernel stays within GOMAXPROCS — each parallel
// run has its own kernel lanes, and a lane waits for the next phase by
// spinning: an oversubscribed lane does not just queue behind the
// others, it holds a processor away from the very lane it waits for.
func jobWorkers(requested, total, maxKernel, gomaxprocs int) int {
	if maxKernel < 1 {
		maxKernel = 1
	}
	budget := gomaxprocs / maxKernel
	if budget < 1 {
		budget = 1
	}
	workers := requested
	if workers <= 0 || workers > budget {
		workers = budget
	}
	if workers > total {
		workers = total
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// fanOut returns cfg as one of jobs simulations running side by side:
// with more than one, a run left at Workers 0 — one kernel lane per
// processor — steps serially instead, so jobs × lanes stays within
// the processors jobWorkers budgeted. A run alone keeps every lane.
func fanOut(cfg vichar.Config, jobs int) vichar.Config {
	if jobs > 1 && cfg.Workers == 0 {
		cfg.Workers = 1
	}
	return cfg
}

// Execute runs every simulation of the experiment (times Replicates),
// fanning out across workers, and assembles the outcome. Series keep
// the order of first appearance in Runs; points are sorted by X.
func (e *Experiment) Execute(opts Options) (*Outcome, error) {
	reps := opts.Replicates
	if reps < 1 {
		reps = 1
	}
	total := len(e.Runs) * reps

	// The widest cycle kernel any run will spawn decides how many runs
	// can execute side by side without oversubscribing the scheduler;
	// a run left at Workers 0 is serial whenever runs fan out (see
	// fanOut), so it counts as one lane.
	maxKernel := 1
	for i := range e.Runs {
		if w := opts.apply(e.Runs[i].Config).Workers; w > maxKernel {
			maxKernel = w
		}
	}
	workers := jobWorkers(opts.Workers, total, maxKernel, runtime.GOMAXPROCS(0))

	type job struct {
		run, rep int
	}
	type done struct {
		run, rep int
		res      vichar.Results
		err      error
	}

	jobs := make(chan job)
	results := make(chan done)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				cfg := fanOut(opts.apply(e.Runs[j.run].Config), workers)
				// Decorrelate replicates deterministically.
				cfg.Seed += int64(j.rep) * 1_000_000_007
				res, err := vichar.Run(cfg)
				results <- done{run: j.run, rep: j.rep, res: res, err: err}
			}
		}()
	}
	go func() {
		for i := range e.Runs {
			for r := 0; r < reps; r++ {
				jobs <- job{run: i, rep: r}
			}
		}
		close(jobs)
		wg.Wait()
		close(results)
	}()

	finished := make([][]vichar.Results, len(e.Runs))
	for i := range finished {
		finished[i] = make([]vichar.Results, reps)
	}
	count := 0
	var firstErr error
	for d := range results {
		if d.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("experiments: %s run %d: %w", e.ID, d.run, d.err)
		}
		finished[d.run][d.rep] = d.res
		count++
		if opts.Progress != nil {
			opts.Progress(count, total)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}

	out := &Outcome{Experiment: e}
	index := map[string]int{}
	for i, r := range e.Runs {
		si, ok := index[r.Series]
		if !ok {
			si = len(out.Series)
			index[r.Series] = si
			out.Series = append(out.Series, Series{Name: r.Series})
		}
		ys := make([]float64, reps)
		for rep := 0; rep < reps; rep++ {
			ys[rep] = e.Metric.Value(&finished[i][rep])
		}
		mean, sem := meanStderr(ys)
		out.Series[si].Points = append(out.Series[si].Points, Point{
			X:       r.X,
			Y:       mean,
			YErr:    sem,
			Results: finished[i][0],
		})
	}
	for i := range out.Series {
		pts := out.Series[i].Points
		sort.Slice(pts, func(a, b int) bool { return pts[a].X < pts[b].X })
	}
	return out, nil
}

// meanStderr returns the sample mean and the standard error of the
// mean (zero for fewer than two samples).
func meanStderr(xs []float64) (mean, sem float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	variance := ss / float64(len(xs)-1)
	return mean, math.Sqrt(variance / float64(len(xs)))
}
