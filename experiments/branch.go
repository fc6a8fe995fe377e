package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"vichar"
)

// BranchSweep is the warm-once/branch-N sweep protocol built on the
// checkpoint/restore API: one simulator is warmed at the base
// configuration's injection rate to half its warm-up quota and
// snapshotted once; each sweep point then restores that snapshot with
// its own rate overridden and completes the measurement protocol.
// Every branch shares the warmed buffer, credit and RNG state instead
// of paying its own cold start, and branching is deterministic — the
// same snapshot and rate always produce bit-identical results.
//
// The cut deliberately lands mid-warm-up: each branch still ejects
// the remaining warm-up quota at its own rate before its measurement
// window opens, so measured statistics reflect the branch rate alone.
func BranchSweep(cfg vichar.Config, rates []float64, metric Metric, opts Options) (Series, error) {
	if len(rates) == 0 {
		return Series{}, fmt.Errorf("experiments: BranchSweep needs at least one rate")
	}
	base := opts.apply(cfg)
	workers := jobWorkers(opts.Workers, len(rates), base.Workers, runtime.GOMAXPROCS(0))
	// Branches inherit the snapshot's configuration, so the warm run
	// is built the way fanOut builds a run among workers.
	base = fanOut(base, workers)
	warm, err := vichar.NewSimulator(base)
	if err != nil {
		return Series{}, err
	}
	target := int64(base.WarmupPackets) / 2
	maxCycles := base.EffectiveMaxCycles()
	for warm.Ejected() < target && warm.Now() < maxCycles {
		warm.Step()
	}
	blob, err := warm.Snapshot()
	warm.Close()
	if err != nil {
		return Series{}, err
	}

	series := Series{
		Name:   base.Label(),
		Points: make([]Point, len(rates)),
	}
	sem := make(chan struct{}, workers)
	errs := make([]error, len(rates))
	var wg sync.WaitGroup
	for i, rate := range rates {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, rate float64) {
			defer wg.Done()
			defer func() { <-sem }()
			branch, err := vichar.RestoreWith(blob, vichar.Overrides{InjectionRate: &rate})
			if err != nil {
				errs[i] = fmt.Errorf("experiments: branch at rate %v: %w", rate, err)
				return
			}
			res := branch.Run()
			branch.Close()
			series.Points[i] = Point{X: rate, Y: metric.Value(&res), Results: res}
		}(i, rate)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return Series{}, err
		}
	}
	return series, nil
}
