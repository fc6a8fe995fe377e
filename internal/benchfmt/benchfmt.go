// Package benchfmt defines the JSON schema of the checked-in kernel
// benchmark artifact (BENCH_kernel.json), including the
// host-provenance block it embeds, plus the loading and delta
// reporting used by `make bench-compare` and the GOMAXPROCS-mismatch
// warning in `make bench-kernel`.
//
// Benchmark numbers are only comparable when they come from the same
// host shape; every artifact therefore records where it was measured
// (CPU model, core count, GOMAXPROCS, go version) so a reader — human
// or tool — can refuse to read a 1-core baseline against a 32-core
// rerun as a regression.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// Host is the provenance block: the machine shape a benchmark
// artifact was recorded on.
type Host struct {
	CPUModel   string `json:"cpu_model"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// CurrentHost captures the provenance block for this process.
func CurrentHost() Host {
	return Host{
		CPUModel:   cpuModel(),
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

// cpuModel reads the CPU model string from /proc/cpuinfo, falling
// back to GOARCH on platforms without one.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		name, val, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(name) {
		case "model name", "Model Name", "cpu model", "Hardware":
			return strings.TrimSpace(val)
		}
	}
	return runtime.GOARCH
}

// Mismatch lists the fields of two provenance blocks that differ,
// most significant first. Empty means the hosts are comparable.
func (h Host) Mismatch(other Host) []string {
	var out []string
	if h.GOMAXPROCS != other.GOMAXPROCS {
		out = append(out, fmt.Sprintf("GOMAXPROCS %d vs %d", h.GOMAXPROCS, other.GOMAXPROCS))
	}
	if h.CPUs != other.CPUs && h.CPUs != 0 && other.CPUs != 0 {
		out = append(out, fmt.Sprintf("cpus %d vs %d", h.CPUs, other.CPUs))
	}
	if h.CPUModel != other.CPUModel && h.CPUModel != "" && other.CPUModel != "" {
		out = append(out, fmt.Sprintf("cpu %q vs %q", h.CPUModel, other.CPUModel))
	}
	if h.GoVersion != other.GoVersion && h.GoVersion != "" && other.GoVersion != "" {
		out = append(out, fmt.Sprintf("go %s vs %s", h.GoVersion, other.GoVersion))
	}
	return out
}

// KernelCell is one (architecture, mesh, injection rate, workers)
// point of the kernel sweep. Mesh is empty for cells recorded on the
// artifact's top-level mesh (LoadKernel normalizes it); TableBytes
// records the route-memoization footprint of the cell's network
// (DESIGN.md §17) so the scaling cells document their table memory.
type KernelCell struct {
	Arch               string  `json:"arch"`
	Mesh               string  `json:"mesh,omitempty"`
	Workers            int     `json:"workers"`
	InjectionRate      float64 `json:"injection_rate"`
	NsPerRun           int64   `json:"ns_per_run"`
	RouterCyclesPerSec float64 `json:"router_cycles_per_sec"`
	SpeedupVsSerial    float64 `json:"speedup_vs_serial,omitempty"`
	TableBytes         int     `json:"table_bytes,omitempty"`
}

// KernelArtifact is the BENCH_kernel.json schema. InjectionRate is
// the saturated sweep's rate, kept top-level for readers of the old
// single-rate schema; each cell carries its own rate. ScalingUnproven
// is the honesty bit: true when the recording host exposed a single
// CPU, in which case the multi-worker cells measure overhead, not
// speedup, and the speedup columns must not be quoted as scaling
// evidence.
type KernelArtifact struct {
	Mesh            string       `json:"mesh"`
	InjectionRate   float64      `json:"injection_rate"`
	GOMAXPROCS      int          `json:"gomaxprocs"`
	ScalingUnproven bool         `json:"scaling_unproven,omitempty"`
	Host            Host         `json:"host"`
	Cells           []KernelCell `json:"cells"`
}

// LoadKernel reads a kernel artifact, normalizing files written by
// the old schema: cells without a per-cell rate inherit the top-level
// one, and a missing host block is synthesized from the top-level
// GOMAXPROCS.
func LoadKernel(path string) (*KernelArtifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a KernelArtifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for i := range a.Cells {
		if a.Cells[i].InjectionRate == 0 {
			a.Cells[i].InjectionRate = a.InjectionRate
		}
		if a.Cells[i].Mesh == "" {
			a.Cells[i].Mesh = a.Mesh
		}
	}
	if a.Host == (Host{}) {
		a.Host.GOMAXPROCS = a.GOMAXPROCS
	}
	return &a, nil
}

// Cell returns the cell matching (arch, mesh, workers, rate), or nil.
// An empty mesh matches the artifact's top-level mesh (what LoadKernel
// normalizes old-schema cells to).
func (a *KernelArtifact) Cell(arch, mesh string, workers int, rate float64) *KernelCell {
	if mesh == "" {
		mesh = a.Mesh
	}
	for i := range a.Cells {
		c := &a.Cells[i]
		cm := c.Mesh
		if cm == "" {
			cm = a.Mesh
		}
		if c.Arch == arch && cm == mesh && c.Workers == workers && c.InjectionRate == rate {
			return c
		}
	}
	return nil
}

// WriteCompare prints a benchstat-style delta report of new vs old,
// cell by cell in old's order, prefixed with any host-shape warnings.
func WriteCompare(w io.Writer, old, cur *KernelArtifact) {
	for _, m := range old.Host.Mismatch(cur.Host) {
		fmt.Fprintf(w, "WARNING: host mismatch, deltas are not comparable: %s\n", m)
	}
	fmt.Fprintf(w, "%-8s %-7s %-9s %-7s %14s %14s %8s\n",
		"arch", "mesh", "rate", "workers", "old rc/s", "new rc/s", "delta")
	matched := 0
	for i := range old.Cells {
		o := &old.Cells[i]
		c := cur.Cell(o.Arch, o.Mesh, o.Workers, o.InjectionRate)
		if c == nil {
			fmt.Fprintf(w, "%-8s %-7s %-9.2f %-7d %14.0f %14s %8s\n",
				o.Arch, o.Mesh, o.InjectionRate, o.Workers, o.RouterCyclesPerSec, "-", "-")
			continue
		}
		matched++
		delta := 0.0
		if o.RouterCyclesPerSec > 0 {
			delta = 100 * (c.RouterCyclesPerSec - o.RouterCyclesPerSec) / o.RouterCyclesPerSec
		}
		fmt.Fprintf(w, "%-8s %-7s %-9.2f %-7d %14.0f %14.0f %+7.1f%%\n",
			o.Arch, o.Mesh, o.InjectionRate, o.Workers, o.RouterCyclesPerSec, c.RouterCyclesPerSec, delta)
	}
	for i := range cur.Cells {
		c := &cur.Cells[i]
		if old.Cell(c.Arch, c.Mesh, c.Workers, c.InjectionRate) == nil {
			fmt.Fprintf(w, "%-8s %-7s %-9.2f %-7d %14s %14.0f %8s\n",
				c.Arch, c.Mesh, c.InjectionRate, c.Workers, "-", c.RouterCyclesPerSec, "new")
		}
	}
	if matched == 0 {
		fmt.Fprintf(w, "no overlapping cells between the two artifacts\n")
	}
}

// MaxLossViolations returns one description per saturated-throughput
// regression beyond maxLossPct: cells of the old artifact's top-level
// (saturated) injection rate whose router-cycles/s dropped by more
// than the threshold in cur. Only cells present in both artifacts are
// judged; an empty result means the gate passes. This is the
// `vichar-benchcmp -max-loss` CI gate.
func MaxLossViolations(old, cur *KernelArtifact, maxLossPct float64) []string {
	var out []string
	for i := range old.Cells {
		o := &old.Cells[i]
		if o.InjectionRate != old.InjectionRate || o.RouterCyclesPerSec <= 0 {
			continue
		}
		c := cur.Cell(o.Arch, o.Mesh, o.Workers, o.InjectionRate)
		if c == nil {
			continue
		}
		loss := 100 * (o.RouterCyclesPerSec - c.RouterCyclesPerSec) / o.RouterCyclesPerSec
		if loss > maxLossPct {
			out = append(out, fmt.Sprintf(
				"%s mesh=%s rate=%.2f workers=%d: %.0f -> %.0f router-cycles/s (-%.1f%% > %.0f%% budget)",
				o.Arch, o.Mesh, o.InjectionRate, o.Workers,
				o.RouterCyclesPerSec, c.RouterCyclesPerSec, loss, maxLossPct))
		}
	}
	return out
}
