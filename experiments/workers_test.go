package experiments

import (
	"reflect"
	"testing"

	"vichar"
)

// TestJobWorkersBudget pins the composed-parallelism accounting:
// job-level workers times the widest per-run cycle kernel must never
// exceed GOMAXPROCS, while degenerate inputs still yield at least one
// worker.
func TestJobWorkersBudget(t *testing.T) {
	cases := []struct {
		name                                          string
		requested, total, maxKernel, gomaxprocs, want int
	}{
		{"default fills machine", 0, 100, 1, 8, 8},
		{"explicit request honored", 3, 100, 1, 8, 3},
		{"clamped to total", 0, 2, 1, 8, 2},
		{"kernel width divides budget", 0, 100, 4, 8, 2},
		{"request clamped by kernel budget", 6, 100, 4, 8, 2},
		{"kernel wider than machine still runs", 0, 100, 16, 8, 1},
		{"zero kernel treated as serial", 0, 100, 0, 8, 8},
		{"empty experiment", 0, 0, 1, 8, 1},
		{"single core", 0, 100, 1, 1, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := jobWorkers(c.requested, c.total, c.maxKernel, c.gomaxprocs)
			if got != c.want {
				t.Fatalf("jobWorkers(%d, %d, %d, %d) = %d, want %d",
					c.requested, c.total, c.maxKernel, c.gomaxprocs, got, c.want)
			}
			if c.maxKernel > 0 && c.gomaxprocs >= c.maxKernel && got*c.maxKernel > c.gomaxprocs && got > 1 {
				t.Fatalf("budget exceeded: %d workers x %d kernel > %d procs", got, c.maxKernel, c.gomaxprocs)
			}
		})
	}
}

// TestKernelWorkersOption verifies Options.KernelWorkers reaches each
// run's configuration and that an experiment executed with a parallel
// kernel matches the serial kernel bit for bit (the library-level echo
// of the network package's determinism test).
func TestKernelWorkersOption(t *testing.T) {
	base := vichar.DefaultConfig()
	base.Width, base.Height = 4, 4
	base.InjectionRate = 0.25
	base.Seed = 99

	opts := Quick()
	opts.WarmupPackets, opts.MeasurePackets = 50, 200
	opts.KernelWorkers = 4
	if got := opts.apply(base).Workers; got != 4 {
		t.Fatalf("apply left Workers = %d, want 4", got)
	}

	exp := &Experiment{
		ID:     "kernel-test",
		Metric: Latency,
		Runs: []Run{
			{Series: "s", X: 1, Config: base},
		},
	}
	run := func(kernel int) *Outcome {
		o := opts
		o.KernelWorkers = kernel
		out, err := exp.Execute(o)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	parallel := run(4)
	a, b := serial.Series[0].Points[0].Results, parallel.Series[0].Points[0].Results
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("kernel workers changed results:\nserial:   %+v\nparallel: %+v", a, b)
	}
}

// TestFanOutSerializesDefaultKernel: a run left at Workers 0 (one
// kernel lane per processor) steps serially once runs fan out, keeps
// its lanes when it runs alone, and an explicit kernel width is never
// touched.
func TestFanOutSerializesDefaultKernel(t *testing.T) {
	cases := []struct{ workers, jobs, want int }{
		{0, 1, 0},
		{0, 2, 1},
		{0, 8, 1},
		{1, 8, 1},
		{2, 1, 2},
		{4, 2, 4},
	}
	for _, c := range cases {
		cfg := vichar.DefaultConfig()
		cfg.Workers = c.workers
		if got := fanOut(cfg, c.jobs).Workers; got != c.want {
			t.Errorf("Workers=%d among %d jobs: got %d, want %d", c.workers, c.jobs, got, c.want)
		}
	}
}
