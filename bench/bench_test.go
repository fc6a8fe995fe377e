package main

import (
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"vichar"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %g, want %g", tc.xs, got, tc.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its argument")
	}
}

// The reported tail is the highest ladder percentile with at least
// ten samples beyond it.
func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n         int
		pct, want float64
	}{
		{5, 50, 3},          // too few for any tail: the median
		{20, 50, 10},        // p90 would leave 2 beyond
		{100, 90, 90},       // p90 leaves exactly 10, p95 only 5
		{199, 90, 180},      // p95 leaves 9
		{200, 95, 190},      // p95 leaves exactly 10
		{1000, 99, 990},     // p99 leaves exactly 10
		{10000, 99.9, 9990}, // top of the ladder
	} {
		pct, v := tailPercentile(ramp(tc.n))
		if pct != tc.pct || v != tc.want {
			t.Errorf("n=%d: tail p%g = %g, want p%g = %g", tc.n, pct, v, tc.pct, tc.want)
		}
		if beyond := tc.n - int(v); pct > 50 && beyond < tailMinBeyond {
			t.Errorf("n=%d: only %d samples beyond p%g", tc.n, beyond, pct)
		}
	}
}

// Self time is a span's duration minus what its direct children
// cover; over a proper tree the self times sum to the root.
func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "workload", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "vichar.new", Start: 0, End: 1},
		{ID: 3, Parent: 1, Name: "simulate", Start: 1, End: 9},
		{ID: 4, Parent: 3, Name: "network.step", Start: 1, End: 4},
		{ID: 5, Parent: 3, Name: "network.step", Start: 4, End: 8},
	}
	self := selfTimes(spans)
	want := map[string]float64{"workload": 1, "vichar.new": 1, "simulate": 1, "network.step": 7}
	sum := 0.0
	for name, w := range want {
		if math.Abs(self[name]-w) > 1e-12 {
			t.Errorf("self time of %s = %g, want %g", name, self[name], w)
		}
		sum += self[name]
	}
	if root := rootTime(spans); math.Abs(sum-root) > 1e-12 || root != 10 {
		t.Errorf("self times sum to %g, root is %g", sum, root)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer("w")
	root := tr.begin("workload")
	a := tr.begin("simulate")
	tr.begin("network.step") // left open: closing its parent closes it
	tr.end(a)
	b := tr.begin("finalize")
	tr.end(b)
	tr.end(root)
	parents := map[string]int{}
	for _, s := range tr.spans {
		parents[s.Name] = s.Parent
		if s.End < s.Start || s.Workload != "w" {
			t.Errorf("bad span %+v", s)
		}
	}
	if parents["workload"] != 0 || parents["simulate"] != root || parents["network.step"] != a || parents["finalize"] != root {
		t.Errorf("wrong parents: %v", parents)
	}
	var none *tracer
	none.end(none.begin("ignored")) // the untraced passes' path
}

func TestJudge(t *testing.T) {
	wall := *metricByName(endToEnd, "wall_s")
	speed := *metricByName(endToEnd, "router_cycles_per_s")
	latency := *metricByName(endToEnd, "sim_avg_latency_cycles")
	tight := func(m float64) summary { return summarize([]float64{m * 0.99, m, m * 1.01}) }
	for _, tc := range []struct {
		name  string
		m     metricDef
		bound float64
		a, b  summary
		want  string
	}{
		{"15% slower fails", wall, 0.10, tight(3), tight(3 * 1.15), verdictWorse},
		{"3% slower passes", wall, 0.10, tight(3), tight(3 * 1.03), verdictSame},
		{"15% faster", wall, 0.10, tight(3), tight(3 * 0.85), verdictBetter},
		{"15% fewer cycles/s fails", speed, 0.10, tight(1e6), tight(0.85e6), verdictWorse},
		{"more cycles/s", speed, 0.10, tight(1e6), tight(1.2e6), verdictBetter},
		{"noisy passes", wall, 0.10, summarize([]float64{2.6, 3, 3.4}), tight(3.2), verdictUnresolved},
		{"noisy but disjoint and better", wall, 0.10, summarize([]float64{2.8, 3, 3.4}), tight(2), verdictBetter},
		{"noisy but disjoint and worse", wall, 0.10, summarize([]float64{2.6, 3, 3.4}), tight(4), verdictWorse},
		{"exact repeats", latency, 0.01, exactly(40), exactly(40), verdictSame},
		{"exact moved a little", latency, 0.01, exactly(40), exactly(40.1), verdictDiffers},
		{"exact got better", latency, 0.01, exactly(40), exactly(30), verdictDiffers},
		{"exact worse than 1%", latency, 0.01, exactly(40), exactly(41), verdictWorse},
	} {
		if _, got := judge(tc.m, tc.bound, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// exactly is a summary whose passes all read v.
func exactly(v float64) summary { return summarize([]float64{v, v, v}) }

func TestCompareSetsReportsChanges(t *testing.T) {
	report := func(wall float64, digest string, saves float64) workloadReport {
		e2e := map[string]summary{}
		for _, m := range endToEnd {
			e2e[m.name] = summarize([]float64{1, 1, 1})
		}
		e2e["wall_s"] = summarize([]float64{wall * 0.99, wall, wall * 1.01})
		return workloadReport{Workload: "sat8x8_vic", EndToEnd: e2e, SimDigest: digest, PerLayer: map[string]float64{"snap.saves": saves}}
	}
	bounds := map[string]float64{"wall_s": 0.10}
	a := &resultSet{Workloads: []workloadReport{report(3, "aaaa", 125)}}
	b := &resultSet{Workloads: []workloadReport{report(3.45, "bbbb", 126)}}
	rows, notes := compareSets(a, b, bounds)
	if len(rows) != len(endToEnd) {
		t.Fatalf("%d rows, want one per end-to-end metric (%d)", len(rows), len(endToEnd))
	}
	for _, r := range rows {
		want := verdictSame
		if r.Metric == "wall_s" {
			want = verdictWorse
		}
		if r.Verdict != want {
			t.Errorf("%s: verdict %q, want %q", r.Metric, r.Verdict, want)
		}
	}
	joined := strings.Join(notes, "\n")
	for _, want := range []string{"sim_digest changed", "snap.saves changed 125 -> 126"} {
		if !strings.Contains(joined, want) {
			t.Errorf("notes lack %q:\n%s", want, joined)
		}
	}
	if rows, notes := compareSets(a, a, bounds); len(notes) != 0 || rows[1].Verdict != verdictSame {
		t.Errorf("a set compared with itself: notes %v, wall verdict %q", notes, rows[1].Verdict)
	}
}

// The smoke scale runs every workload end to end and traced, with all
// checks wired in, so API drift under the benchmark shows up in the
// ordinary test run.
func TestSmokeAllWorkloads(t *testing.T) {
	o := options{seed: 1, seconds: 10, smoke: true, outDir: t.TempDir()}
	digests := map[string]string{}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			rep, err := runComplete(w, o)
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range rep.FailedOps {
				t.Errorf("operation %q failed: %s", op.Name, op.Err)
			}
			if rep.Attempted == 0 {
				t.Error("no operations attempted")
			}
			for _, m := range endToEnd {
				if s, ok := rep.EndToEnd[m.name]; !ok || !(s.Median > 0) {
					t.Errorf("end-to-end metric %s = %v, want a positive figure", m.name, s.Median)
				}
			}
			for _, m := range perLayer {
				if _, ok := rep.PerLayer[m.name]; !ok {
					t.Errorf("per-layer metric %s missing", m.name)
				}
			}
			if len(rep.PerLayer) != len(perLayer) {
				t.Errorf("%d per-layer metrics reported, table lists %d", len(rep.PerLayer), len(perLayer))
			}
			digests[w.name] = rep.SimDigest

			var tf traceFile
			if err := readJSON(filepath.Join(o.outDir, "trace-"+w.name+".json"), &tf); err != nil {
				t.Fatal(err)
			}
			sum := 0.0
			for _, s := range selfTimes(tf.Spans) {
				sum += s
			}
			if len(tf.Spans) == 0 || math.Abs(sum-tf.TracedWall) > 0.05*tf.TracedWall {
				t.Errorf("%d spans, self times sum to %g, traced wall %g", len(tf.Spans), sum, tf.TracedWall)
			}
			names := map[string]bool{}
			for _, s := range tf.Spans {
				names[s.Name] = true
			}
			for _, want := range []string{"workload", "vichar.new", "routing.build", "simulate", "finalize"} {
				if !names[want] {
					t.Errorf("trace has no %q span", want)
				}
			}
		})
	}
	// (Both are present unless -run filtered the subtests.)
	if obs, plain := digests["observed8x8"], digests["sat8x8_vic"]; obs != "" && plain != "" && obs != plain {
		t.Errorf("observed8x8 digest %.12s, sat8x8_vic %.12s: observability must not perturb results", obs, plain)
	}
}

// The seed reaches the simulator only through the configurations: the
// same seed repeats exactly, another seed is another run.
func TestSeedDecidesTheRun(t *testing.T) {
	run := func(seed int64) passResult {
		res, err := runPass(passSpec{Workload: "lowload8x8_vic", Seed: seed, Scale: quotaFactor / smokeShrink})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b, c := run(1), run(1), run(2)
	if a.Digest != b.Digest || a.AvgLatency != b.AvgLatency {
		t.Errorf("seed 1 did not repeat: %.12s vs %.12s", a.Digest, b.Digest)
	}
	if a.Digest == c.Digest {
		t.Error("seeds 1 and 2 produced the same run")
	}
}

// A failing check must surface as a failed operation.
func TestFailedCheckIsAFailedOperation(t *testing.T) {
	c := newPassCtx(passSpec{Workload: "x", Scale: 1})
	c.op("fine", func() error { return nil })
	c.op("panics", func() error { panic("boom") })
	c.op("saturates", func() error {
		cfg := platform(c.spec, vichar.ViChaR, 0.40, 100, 400)
		cfg.MaxCycles = 50 // far too few cycles to eject 500 packets
		_, err := c.simulate(cfg, false)
		return err
	})
	var rep workloadReport
	rep.add(c.ops...)
	if rep.Attempted != 3 || rep.Failed != 2 {
		t.Fatalf("ops %+v: want 3 attempted, 2 failed", c.ops)
	}
	if !strings.Contains(rep.FailedOps[0].Err, "boom") || !strings.Contains(rep.FailedOps[1].Err, "Saturated") {
		t.Errorf("unexpected failure texts: %+v", rep.FailedOps)
	}
}

// BENCHMARK.json at the repository root and the harness must name the
// same workloads and metrics, with the same units and directions.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	var bench benchmarkFile
	if err := readJSON(filepath.Join("..", benchmarkPath), &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Paths) != 1 || bench.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bench.Paths)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(bench.Workloads), len(workloads))
	}
	for i, w := range bench.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), harness %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	same := func(kind string, listed []benchmarkMetric, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the harness", len(listed), kind, len(defs))
		}
		for i, m := range listed {
			if d := defs[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, harness %+v", kind, i, m, d)
			}
		}
	}
	same("end-to-end", bench.EndToEnd, endToEnd)
	same("per-layer", bench.PerLayer, perLayer)
	setup := 0.0
	for _, m := range bench.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Bound
		}
	}
	for _, m := range bench.EndToEnd {
		if m.Bound > setup {
			t.Errorf("%s has bound %g, above setup_s's %g: set-up time gets the largest bound", m.Name, m.Bound, setup)
		}
	}
	if bench.RunSeconds != 10 {
		t.Errorf("run_seconds = %d; quotaFactor sizes the passes for 10", bench.RunSeconds)
	}
}

// The harness may reach below the public API only into the layers it
// measures. A later change that deletes or renames another internal
// package must not have to touch this directory.
func TestInternalImportsAllowList(t *testing.T) {
	allowed := map[string]bool{}
	for _, p := range []string{"network", "router", "core", "buffers", "arbiter", "routing", "traffic", "topology", "config", "flit"} {
		allowed["vichar/internal/"+p] = true
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if strings.HasPrefix(path, "vichar/internal/") {
				seen++
				if !allowed[path] {
					t.Errorf("%s imports %s, which is not on the allow-list", file, path)
				}
			}
		}
	}
	if seen == 0 {
		t.Error("found no vichar/internal imports: the scan is broken")
	}
}

// The wall clock is read in exactly one annotated place, so the
// repository's ambient-entropy lint stays clean without editing it.
func TestOneWallClockRead(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	reads := 0
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, call := range []string{"time.Now(", "time.Since(", "time.Until("} {
			if n := strings.Count(string(data), call); n > 0 && file != "stats.go" && file != "bench_test.go" {
				t.Errorf("%s reads the wall clock (%s) outside the now() helper", file, call)
			} else if file == "stats.go" {
				reads += n
			}
		}
	}
	if reads != 1 {
		t.Errorf("stats.go reads the wall clock %d times, want exactly the one in now()", reads)
	}
}
