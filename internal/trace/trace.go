// Package trace records and replays packet workloads. A trace is the
// list of packet creation events of a run — cycle, source,
// destination and size — which makes any workload (including the
// stochastic generators) reproducible as a file, and lets externally
// captured SoC traces drive the simulator (the paper's stated future
// work: "evaluate the performance of ViChaR using workloads and
// traces from existing System-on-Chip architectures").
//
// The on-disk format is one event per line, space-separated:
//
//	cycle src dst size
//
// with '#' comment lines and blank lines ignored.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"vichar/internal/config"
)

// Entry is one packet creation event.
type Entry struct {
	// Cycle is the creation time; replay injects the packet into its
	// source queue at this cycle.
	Cycle int64
	// Src and Dst are node IDs.
	Src, Dst int
	// Size is the packet length in flits.
	Size int
}

// Validate reports the first structural problem with the entry for a
// network of nodes nodes.
func (e Entry) Validate(nodes int) error {
	switch {
	case e.Cycle < 0:
		return fmt.Errorf("trace: negative cycle %d", e.Cycle)
	case e.Src < 0 || e.Src >= nodes:
		return fmt.Errorf("trace: source %d outside %d nodes", e.Src, nodes)
	case e.Dst < 0 || e.Dst >= nodes:
		return fmt.Errorf("trace: destination %d outside %d nodes", e.Dst, nodes)
	case e.Src == e.Dst:
		return fmt.Errorf("trace: self-addressed packet at node %d", e.Src)
	case e.Size < 1 || e.Size > config.MaxPacketSize:
		return fmt.Errorf("trace: packet size %d outside 1..%d flits", e.Size, config.MaxPacketSize)
	}
	return nil
}

// Write serializes entries to w in creation order.
func Write(w io.Writer, entries []Entry) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "# vichar packet trace: cycle src dst size"); err != nil {
		return err
	}
	for _, e := range entries {
		if _, err := fmt.Fprintf(bw, "%d %d %d %d\n", e.Cycle, e.Src, e.Dst, e.Size); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a trace from r. Entries are returned sorted by cycle
// (stable, preserving same-cycle order). Every data line must consist
// of exactly four integer fields; lines with missing, trailing or
// non-numeric tokens are rejected with a line-numbered error rather
// than silently truncated or partially parsed.
func Read(r io.Reader) ([]Entry, error) {
	var entries []Entry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		e, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %q: %w", lineNo, line, err)
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].Cycle < entries[j].Cycle })
	return entries, nil
}

// parseLine parses one non-comment trace line of exactly four
// integer fields: cycle src dst size.
func parseLine(line string) (Entry, error) {
	fields := strings.Fields(line)
	if len(fields) != 4 {
		return Entry{}, fmt.Errorf("want 4 fields (cycle src dst size), got %d", len(fields))
	}
	cycle, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return Entry{}, fmt.Errorf("bad cycle: %w", err)
	}
	src, err := strconv.Atoi(fields[1])
	if err != nil {
		return Entry{}, fmt.Errorf("bad source: %w", err)
	}
	dst, err := strconv.Atoi(fields[2])
	if err != nil {
		return Entry{}, fmt.Errorf("bad destination: %w", err)
	}
	size, err := strconv.Atoi(fields[3])
	if err != nil {
		return Entry{}, fmt.Errorf("bad size: %w", err)
	}
	return Entry{Cycle: cycle, Src: src, Dst: dst, Size: size}, nil
}

// ValidateAll checks every entry against the node count.
func ValidateAll(entries []Entry, nodes int) error {
	for i, e := range entries {
		if err := e.Validate(nodes); err != nil {
			return fmt.Errorf("entry %d: %w", i, err)
		}
	}
	return nil
}
