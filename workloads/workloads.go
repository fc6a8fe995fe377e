// Package workloads generates application-style traffic from task
// communication graphs — the paper's stated future work ("evaluate
// the performance of ViChaR using workloads and traces from existing
// System-on-Chip architectures"). A TaskGraph names the cores of an
// SoC and the bandwidth of each producer→consumer stream; Trace turns
// it into a packet trace that vichar.Simulator.LoadTrace replays
// against any router architecture.
//
// Two built-in graphs follow the shape of the classic NoC mapping
// benchmarks: a Video Object Plane Decoder (VOPD-style, 12 cores) and
// an MPEG-4 decoder (9 cores). Their bandwidth figures are
// representative of the published benchmark tables (MB/s-scale
// ratios), not bit-exact copies; what matters for interconnect
// studies is the hot-path structure they induce.
package workloads

import (
	"fmt"
	"sort"

	"vichar"
	"vichar/internal/rng"
)

// Edge is one producer→consumer stream of a task graph.
type Edge struct {
	Src, Dst string
	// Bandwidth is the stream's relative traffic volume (any unit;
	// only ratios matter).
	Bandwidth float64
}

// TaskGraph is an application's communication structure.
type TaskGraph struct {
	Name  string
	Tasks []string
	Edges []Edge
}

// Validate reports structural problems: unknown task names, empty
// graphs, non-positive bandwidths, self-loops.
func (g TaskGraph) Validate() error {
	if len(g.Tasks) == 0 || len(g.Edges) == 0 {
		return fmt.Errorf("workloads: graph %q has no tasks or edges", g.Name)
	}
	known := map[string]bool{}
	for _, t := range g.Tasks {
		if known[t] {
			return fmt.Errorf("workloads: graph %q repeats task %q", g.Name, t)
		}
		known[t] = true
	}
	for _, e := range g.Edges {
		if !known[e.Src] || !known[e.Dst] {
			return fmt.Errorf("workloads: graph %q edge %s->%s names an unknown task", g.Name, e.Src, e.Dst)
		}
		if e.Src == e.Dst {
			return fmt.Errorf("workloads: graph %q has a self-loop at %q", g.Name, e.Src)
		}
		if e.Bandwidth <= 0 {
			return fmt.Errorf("workloads: graph %q edge %s->%s has bandwidth %g", g.Name, e.Src, e.Dst, e.Bandwidth)
		}
	}
	return nil
}

// TotalBandwidth sums the edge volumes.
func (g TaskGraph) TotalBandwidth() float64 {
	t := 0.0
	for _, e := range g.Edges {
		t += e.Bandwidth
	}
	return t
}

// DefaultMapping places tasks on the mesh row-major (task i on node
// i). It fails if the mesh is smaller than the task count.
func (g TaskGraph) DefaultMapping(cfg vichar.Config) (map[string]int, error) {
	if len(g.Tasks) > cfg.Nodes() {
		return nil, fmt.Errorf("workloads: %d tasks do not fit a %dx%d mesh",
			len(g.Tasks), cfg.Width, cfg.Height)
	}
	m := make(map[string]int, len(g.Tasks))
	for i, t := range g.Tasks {
		m[t] = i
	}
	return m, nil
}

// Trace synthesizes a packet trace of the given length: each edge
// injects packets as an independent Bernoulli stream whose rate is
// its share of totalRate (network-wide flits/cycle), using the
// configuration's packet size. The mapping assigns tasks to nodes;
// nil uses DefaultMapping. Entries come back sorted by cycle, ready
// for Simulator.LoadTrace.
func (g TaskGraph) Trace(cfg vichar.Config, mapping map[string]int, cycles int64, totalRate float64, seed int64) ([]vichar.TraceEntry, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if cycles < 1 || totalRate <= 0 {
		return nil, fmt.Errorf("workloads: need positive cycles and rate, got %d and %g", cycles, totalRate)
	}
	if mapping == nil {
		var err error
		mapping, err = g.DefaultMapping(cfg)
		if err != nil {
			return nil, err
		}
	}
	for _, task := range g.Tasks {
		node, ok := mapping[task]
		if !ok {
			return nil, fmt.Errorf("workloads: mapping misses task %q", task)
		}
		if node < 0 || node >= cfg.Nodes() {
			return nil, fmt.Errorf("workloads: task %q mapped to node %d outside the %d-node mesh", task, node, cfg.Nodes())
		}
	}

	total := g.TotalBandwidth()
	size := cfg.PacketSize
	stream := rng.New(seed)

	// Per-edge per-cycle packet probability.
	probs := make([]float64, len(g.Edges))
	for i, e := range g.Edges {
		flitRate := totalRate * e.Bandwidth / total
		probs[i] = flitRate / float64(size)
		if probs[i] > 1 {
			return nil, fmt.Errorf("workloads: edge %s->%s needs %.2f packets/cycle; lower totalRate",
				e.Src, e.Dst, probs[i])
		}
	}

	var entries []vichar.TraceEntry
	for now := int64(1); now <= cycles; now++ {
		for i, e := range g.Edges {
			if stream.Float64() < probs[i] {
				entries = append(entries, vichar.TraceEntry{
					Cycle: now,
					Src:   mapping[e.Src],
					Dst:   mapping[e.Dst],
					Size:  size,
				})
			}
		}
	}
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].Cycle < entries[j].Cycle })
	return entries, nil
}

// FeasibleRate returns a network-wide injection rate (flits/cycle)
// the graph can sustain indefinitely: the binding constraints are the
// one-flit-per-cycle injection and ejection ports of the busiest
// task's node. The returned rate leaves the given headroom fraction
// (e.g. 0.1 keeps the hottest port at 90% load).
func (g TaskGraph) FeasibleRate(headroom float64) float64 {
	total := g.TotalBandwidth()
	if total == 0 {
		return 0
	}
	in := map[string]float64{}
	out := map[string]float64{}
	for _, e := range g.Edges {
		out[e.Src] += e.Bandwidth
		in[e.Dst] += e.Bandwidth
	}
	maxShare := 0.0
	for _, t := range g.Tasks {
		if s := in[t] / total; s > maxShare {
			maxShare = s
		}
		if s := out[t] / total; s > maxShare {
			maxShare = s
		}
	}
	if maxShare == 0 {
		return 0
	}
	return (1 - headroom) / maxShare
}

// VOPD returns a Video Object Plane Decoder task graph in the style
// of the classic NoC mapping benchmark: a 12-core pipeline from
// variable-length decoding through inverse DCT to VOP reconstruction
// and padding, with the memory feedback streams that make its traffic
// non-uniform.
func VOPD() TaskGraph {
	return TaskGraph{
		Name: "vopd",
		Tasks: []string{
			"vld", "run_le_dec", "inv_scan", "acdc_pred", "stripe_mem",
			"iquant", "idct", "up_samp", "vop_rec", "pad", "vop_mem", "arm",
		},
		Edges: []Edge{
			{"vld", "run_le_dec", 70},
			{"run_le_dec", "inv_scan", 362},
			{"inv_scan", "acdc_pred", 362},
			{"acdc_pred", "stripe_mem", 49},
			{"stripe_mem", "acdc_pred", 27},
			{"acdc_pred", "iquant", 313},
			{"iquant", "idct", 357},
			{"idct", "up_samp", 353},
			{"up_samp", "vop_rec", 300},
			{"vop_rec", "pad", 313},
			{"pad", "vop_mem", 94},
			{"vop_mem", "pad", 500},
			{"arm", "idct", 16},
			{"arm", "vop_mem", 16},
		},
	}
}

// MPEG4 returns an MPEG-4 decoder task graph in the style of the
// classic 9-core benchmark, dominated by the shared SDRAM and SRAM
// traffic that concentrates load on the memory nodes.
func MPEG4() TaskGraph {
	return TaskGraph{
		Name: "mpeg4",
		Tasks: []string{
			"vu", "au", "med_cpu", "rast", "sdram", "sram1", "sram2", "adsp", "up_samp",
		},
		Edges: []Edge{
			{"vu", "sdram", 190},
			{"au", "sdram", 60},
			{"med_cpu", "sdram", 600},
			{"rast", "sdram", 640},
			{"sdram", "up_samp", 250},
			{"sdram", "adsp", 173},
			{"adsp", "sram2", 201},
			{"sram1", "med_cpu", 40},
			{"med_cpu", "sram1", 40},
			{"up_samp", "rast", 250},
			{"sram2", "adsp", 80},
			{"au", "sram2", 67},
		},
	}
}

// Graphs returns every built-in task graph.
func Graphs() []TaskGraph { return []TaskGraph{VOPD(), MPEG4()} }
