package main

import (
	"fmt"
	"math"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root, the
// one place the regression bounds live.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const benchmarkPath = "BENCHMARK.json"

// Verdicts of one workload x metric comparison.
const (
	verdictSame       = "same"
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved" // pass spread wider than the bound
	verdictDiffers    = "differs"    // an exact metric changed, within its bound
)

// comparison is one row of the -compare report.
type comparison struct {
	Workload string
	Metric   string
	A, B     float64
	// Change is how much worse B reads than A as a share of A
	// (negative: better).
	Change  float64
	Bound   float64
	Verdict string
}

// judge compares one metric of result set B against A. A host-time
// metric is worse (better) when its median moved past the bound; when
// either side's passes spread wider than the bound the movement is
// unresolved, unless the two sides' passes do not even overlap. An
// exact metric must repeat: any difference is flagged, and one past
// the bound is worse.
func judge(m metricDef, bound float64, a, b summary) (change float64, verdict string) {
	sign := 1.0
	if m.better == "higher" {
		sign = -1
	}
	if a.Median != 0 {
		change = sign * (b.Median - a.Median) / math.Abs(a.Median)
	}
	if m.exact {
		switch {
		case a.Median == b.Median:
			return change, verdictSame
		case change > bound:
			return change, verdictWorse
		default:
			return change, verdictDiffers
		}
	}
	if math.Max(a.spread(), b.spread()) > bound {
		// Each side's pass range, oriented so that larger is worse.
		best := func(s summary) float64 { return math.Min(sign*s.Min, sign*s.Max) }
		worst := func(s summary) float64 { return math.Max(sign*s.Min, sign*s.Max) }
		switch {
		case worst(b) < best(a):
			return change, verdictBetter
		case best(b) > worst(a) && change > bound:
			return change, verdictWorse
		default:
			return change, verdictUnresolved
		}
	}
	switch {
	case change > bound:
		return change, verdictWorse
	case change < -bound:
		return change, verdictBetter
	default:
		return change, verdictSame
	}
}

// exactRepeatBound is how much worse an exact (simulated-time) metric
// may read between two sets measured with the same seed and
// --seconds. BENCHMARK.json's bounds for these metrics are wider only
// because the benchmark driver compares runs across seeds.
const exactRepeatBound = 0.01

// compareSets judges every workload x end-to-end metric of b against
// a, and lists the sim_digests and exact per-layer metrics that
// changed.
func compareSets(a, b *resultSet, bounds map[string]float64) (rows []comparison, notes []string) {
	sameInputs := a.Provenance.Seed == b.Provenance.Seed && a.Provenance.Seconds == b.Provenance.Seconds
	other := map[string]*workloadReport{}
	for i := range b.Workloads {
		other[b.Workloads[i].Workload] = &b.Workloads[i]
	}
	for i := range a.Workloads {
		wa := &a.Workloads[i]
		wb := other[wa.Workload]
		if wb == nil {
			notes = append(notes, fmt.Sprintf("%s: missing from the second set", wa.Workload))
			continue
		}
		for _, m := range endToEnd {
			bound := bounds[m.name]
			if m.exact && sameInputs {
				bound = math.Min(bound, exactRepeatBound)
			}
			sa, sb := wa.EndToEnd[m.name], wb.EndToEnd[m.name]
			change, verdict := judge(m, bound, sa, sb)
			rows = append(rows, comparison{wa.Workload, m.name, sa.Median, sb.Median, change, bound, verdict})
		}
		if wa.SimDigest != wb.SimDigest {
			notes = append(notes, fmt.Sprintf("%s: sim_digest changed %.12s -> %.12s", wa.Workload, wa.SimDigest, wb.SimDigest))
		}
		for _, m := range perLayer {
			if va, vb := wa.PerLayer[m.name], wb.PerLayer[m.name]; m.exact && va != vb {
				notes = append(notes, fmt.Sprintf("%s: exact per-layer metric %s changed %g -> %g", wa.Workload, m.name, va, vb))
			}
		}
		if fa, fb := wa.Failed, wb.Failed; fa+fb > 0 {
			notes = append(notes, fmt.Sprintf("%s: failed operations %d -> %d", wa.Workload, fa, fb))
		}
	}
	return rows, notes
}

// compareMain is `-compare A.json B.json`: it exits non-zero when any
// metric is worse.
func compareMain(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare needs two result sets: -compare A.json B.json")
	}
	var bench benchmarkFile
	if err := readJSON(benchmarkPath, &bench); err != nil {
		return err
	}
	bounds := map[string]float64{}
	for _, m := range bench.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	var a, b resultSet
	if err := readJSON(args[0], &a); err != nil {
		return err
	}
	if err := readJSON(args[1], &b); err != nil {
		return err
	}
	if a.Provenance.Seed != b.Provenance.Seed || a.Provenance.Seconds != b.Provenance.Seconds {
		fmt.Printf("note: the sets differ in seed or --seconds (%d/%g vs %d/%g): simulated metrics are not expected to repeat and are held to BENCHMARK.json's cross-seed bounds\n",
			a.Provenance.Seed, a.Provenance.Seconds, b.Provenance.Seed, b.Provenance.Seconds)
	}
	rows, notes := compareSets(&a, &b, bounds)
	worse := 0
	fmt.Printf("%-18s %-32s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "change", "bound", "verdict")
	for _, r := range rows {
		fmt.Printf("%-18s %-32s %14.6g %14.6g %+8.2f%% %6.3g%%  %s\n", r.Workload, r.Metric, r.A, r.B, 100*r.Change, 100*r.Bound, r.Verdict)
		if r.Verdict == verdictWorse {
			worse++
		}
	}
	for _, n := range notes {
		fmt.Println("note:", n)
	}
	if worse > 0 {
		return fmt.Errorf("%d workload x metric pairs are worse than their bound", worse)
	}
	return nil
}
