// Command bench is the repository benchmark (BENCHMARK.json): eight
// named workloads on the public simulator surface, end-to-end metrics
// from untraced passes, per-layer metrics and a span trace from a
// separate traced run, and correctness checks wired in as failed
// operations. See README.md in this directory.
//
//	go run ./bench --workload sat8x8_vic --seed 1 --seconds 10 --trace 0
//	go run ./bench -out A.json              # every workload, both runs
//	go run ./bench -compare A.json B.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// accuracyStatement stands where an error figure against reference
// data would: the repository holds none (results/*_paper.txt are this
// simulator's own output).
const accuracyStatement = "model unvalidated against a reference; comparative claims pinned by shape_test.go"

// errOperationsFailed ends a run whose report already lists the
// failed operations.
var errOperationsFailed = errors.New("operations failed")

// benchProcs pins the scheduler: one process generates all load, on
// the two CPUs of the reference host, with never more than two job or
// kernel workers.
const benchProcs = 2

func main() {
	runtime.GOMAXPROCS(benchProcs)
	var (
		workloadName = flag.String("workload", "", "run one workload and end with the driver's one-line JSON result (default: every workload, end-to-end and traced)")
		seed         = flag.Int64("seed", 1, "added to every run's Config.Seed; the simulator sees only the resulting configurations")
		seconds      = flag.Float64("seconds", 10, "how long a run measures on the reference host; scales every packet quota linearly")
		trace        = flag.Int("trace", 0, "with --workload: 0 reports the end-to-end metrics, 1 the per-layer metrics and writes the span trace")
		smoke        = flag.Bool("smoke", false, "all quotas / 50, one pass, in-process: exercises every code path in seconds")
		outDir       = flag.String("dir", ".bench_build", "directory for span traces and result sets")
		out          = flag.String("out", "", "result-set file of a complete run (default <dir>/results.json)")
		compare      = flag.Bool("compare", false, "compare two result sets: -compare A.json B.json")
		child        = flag.String("child", "", "internal: run one pass described by this JSON spec")
	)
	flag.Parse()

	var err error
	switch {
	case *child != "":
		err = childMain(*child)
	case *compare:
		err = compareMain(flag.Args())
	default:
		o := options{seed: *seed, seconds: *seconds, smoke: *smoke, outDir: *outDir}
		if !o.smoke {
			if o.exe, err = os.Executable(); err != nil {
				break
			}
		}
		if *workloadName != "" {
			err = driverMain(*workloadName, *trace != 0, o)
		} else {
			if *out == "" {
				*out = filepath.Join(o.outDir, "results.json")
			}
			err = completeMain(*out, o)
		}
	}
	if err != nil {
		if !errors.Is(err, errOperationsFailed) {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
		os.Exit(1)
	}
}

// provenance is emitted with every result.
type provenance struct {
	CPUModel   string  `json:"cpu_model"`
	CPUs       int     `json:"cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitRev     string  `json:"git_rev"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke,omitempty"`
}

func currentProvenance(o options) provenance {
	p := provenance{
		CPUModel:   "unknown",
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitRev:     "unknown",
		Seed:       o.seed,
		Seconds:    o.seconds,
		Smoke:      o.smoke,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if key, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "model name" {
				p.CPUModel = strings.TrimSpace(value)
				break
			}
		}
	}
	// The toolchain stamps the revision when the binary is built inside
	// a git checkout; the driver's checkout is not one.
	if info, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				p.GitRev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty {
			p.GitRev += "+dirty"
		}
	}
	return p
}

func printHeader(title string, o options) {
	p := currentProvenance(o)
	fmt.Printf("# vichar bench: %s\n", title)
	fmt.Printf("# provenance: cpu=%q cpus=%d GOMAXPROCS=%d %s rev=%s seed=%d seconds=%g smoke=%v\n",
		p.CPUModel, p.CPUs, p.GOMAXPROCS, p.GoVersion, p.GitRev, p.Seed, p.Seconds, p.Smoke)
	fmt.Printf("# accuracy: %s\n", accuracyStatement)
}

// printReport lists every metric by name and unit, then the
// operations.
func printReport(rep *workloadReport) {
	fmt.Printf("workload %s\n", rep.Workload)
	for _, m := range endToEnd {
		s, ok := rep.EndToEnd[m.name]
		if !ok {
			continue
		}
		note := fmt.Sprintf("median of %d passes, min %.6g max %.6g", s.Passes, s.Min, s.Max)
		if m.exact {
			note = "simulated time, exact for the seed"
		}
		fmt.Printf("  %-34s %14.6g %-12s (%s)\n", m.name, s.Median, m.unit, note)
	}
	fmt.Printf("  %-34s %s\n", "sim_digest", rep.SimDigest)
	if rep.PerLayer != nil {
		for _, m := range perLayer {
			note := ""
			if m.exact {
				note = " (exact)"
			}
			fmt.Printf("  %-34s %14.6g %s%s\n", m.name, rep.PerLayer[m.name], m.unit, note)
		}
		fmt.Printf("  network.step_ns_tail is p%g of %g samples (256-cycle chunks of Simulator.Step / 256)\n",
			rep.PerLayer["network.step_tail_pct"], rep.PerLayer["network.step_samples"])
	}
	for _, o := range rep.FailedOps {
		fmt.Printf("  FAILED %s: %s\n", o.Name, o.Err)
	}
	fmt.Printf("  operations: %d attempted, %d failed\n", rep.Attempted, rep.Failed)
}

// driverResult is the one-line JSON object the benchmark contract
// asks for as the last line of standard output.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverMain runs one workload the way the benchmark driver asks.
func driverMain(name string, traced bool, o options) error {
	w := workloadByName(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	printHeader(fmt.Sprintf("workload %s, trace %v", name, traced), o)
	var rep *workloadReport
	var err error
	if traced {
		rep, err = runTraced(w, o)
	} else {
		rep, err = measureEndToEnd(w, o)
	}
	if err != nil {
		return err
	}
	printReport(rep)

	res := driverResult{Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]driverValue{}}
	res.Correct = res.Failed == 0
	if traced {
		for _, m := range perLayer {
			res.Metrics[m.name] = driverValue{rep.PerLayer[m.name], m.unit}
		}
	} else {
		for _, m := range endToEnd {
			res.Metrics[m.name] = driverValue{rep.EndToEnd[m.name].Median, m.unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errOperationsFailed
	}
	return nil
}

// resultSet is a complete run: what -compare reads.
type resultSet struct {
	Provenance provenance       `json:"provenance"`
	Accuracy   string           `json:"accuracy"`
	Workloads  []workloadReport `json:"workloads"`
}

// completeMain runs every workload end to end and traced, and writes
// the result set.
func completeMain(out string, o options) error {
	printHeader("complete run, every workload", o)
	set := resultSet{Provenance: currentProvenance(o), Accuracy: accuracyStatement}
	failed := 0
	for i := range workloads {
		rep, err := runComplete(&workloads[i], o)
		if err != nil {
			return err
		}
		printReport(rep)
		failed += rep.Failed
		set.Workloads = append(set.Workloads, *rep)
	}
	if err := writeJSON(out, set); err != nil {
		return err
	}
	fmt.Printf("result set written to %s; span traces in %s\n", out, o.outDir)
	if failed > 0 {
		fmt.Printf("%d operations failed\n", failed)
		return errOperationsFailed
	}
	return nil
}
