// Package metrics is the simulator's live observability layer: a
// typed registry of named counters and gauges exposing the cycle
// kernel's own event counters, plus a bounded flit-lifecycle event
// tracer (trace.go) and an HTTP exporter (handler.go) serving the
// Prometheus text format.
//
// The registry holds no counting logic. Every countable event is
// incremented exactly once, in state owned by the component that
// produces it (router, network interface, link, network core); the
// registry is a read-only view over that state. The network registers
// one series per exposed counter at construction and, in the serial
// phase of the kernel (DESIGN.md §10) — the sample cadence plus a
// final flush — copies the current absolute values in under one lock
// acquisition (Store). Values are therefore bit-identical for any
// worker count, and concurrent readers (the HTTP exporter, the
// Snapshot API) only ever take the registry lock, never touch kernel
// state.
//
// A run without the layer builds none of it: no registry, no
// recorders, nothing tested on the tick path except the nil check
// inside Recorder.StageEvent.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Label is one key/value pair of a metric series. Labels are kept as
// ordered slices (not maps) so every rendering and snapshot of the
// registry is deterministic.
type Label struct {
	Key, Value string
}

// Labels is the ordered label set of one series.
type Labels []Label

// String renders the label set in Prometheus exposition syntax,
// without the surrounding braces; empty for an unlabeled series.
func (ls Labels) String() string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabel applies the Prometheus label-value escapes.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// GaugeID names one gauge series within the Registry.
type GaugeID int

// seriesDesc describes one registered series.
type seriesDesc struct {
	name   string
	help   string
	labels Labels
}

// Registry holds the last stored value of every registered series.
// All mutation goes through Store and SetGauge — serial-phase
// operations — while Snapshot and WritePrometheus may be called from
// any goroutine (the HTTP exporter's scrape path).
type Registry struct {
	mu       sync.RWMutex
	counters []seriesDesc
	cvals    []uint64
	gauges   []seriesDesc
	gvals    []float64
}

// NewRegistry returns an empty registry. Register every series (via
// Counter and Gauge) at construction time, before the first
// concurrent reader.
func NewRegistry() *Registry { return &Registry{} }

// Counter registers a counter series. Its value is whatever the
// owner's Store pass writes at the series' registration index.
func (r *Registry) Counter(name, help string, labels Labels) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters = append(r.counters, seriesDesc{name: name, help: help, labels: labels})
	r.cvals = append(r.cvals, 0)
}

// Store refreshes every counter series under one lock acquisition:
// fill receives the value slice, indexed in registration order, and
// overwrites each entry with the owning component's current absolute
// count. Serial phase only — fill reads kernel state, which must be
// quiescent.
func (r *Registry) Store(fill func(vals []uint64)) {
	r.mu.Lock()
	fill(r.cvals)
	r.mu.Unlock()
}

// Gauge registers a gauge series and returns its ID.
func (r *Registry) Gauge(name, help string, labels Labels) GaugeID {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges = append(r.gauges, seriesDesc{name: name, help: help, labels: labels})
	r.gvals = append(r.gvals, 0)
	return GaugeID(len(r.gauges) - 1)
}

// SetGauge stores the gauge's current value. Serial phase only.
func (r *Registry) SetGauge(id GaugeID, v float64) {
	r.mu.Lock()
	r.gvals[id] = v
	r.mu.Unlock()
}

// Recorder is the single-writer flit-event staging buffer of one
// shard-owned component group (a node's router, network interface and
// incoming links, or the serial phase). It must only ever be written
// by the shard that owns it — the kernel's phase barriers order those
// writes against the serial Tracer.Drain. Recorders exist only when
// tracing is on; components hold a nil *Recorder otherwise.
type Recorder struct {
	events []record
}

// StageEvent appends a flit-lifecycle event to the staging buffer; a
// no-op on a nil recorder (tracing off). The event is stored packed
// and without its Seq, which is its place in the order the tracer
// drains the recorders in the serial phase.
func (rec *Recorder) StageEvent(e Event) {
	if rec == nil {
		return
	}
	//vichar:alloc the staging buffer grows to the per-tick event peak, then Drain resets it to length zero in place
	rec.events = append(rec.events, pack(e))
}

// Pending returns the number of staged, undrained events (tests).
func (rec *Recorder) Pending() int { return len(rec.events) }

// CounterValue is one counter series with its last stored value.
type CounterValue struct {
	Name   string
	Labels Labels
	Value  uint64
}

// GaugeValue is one gauge series with its current value.
type GaugeValue struct {
	Name   string
	Labels Labels
	Value  float64
}

// Snapshot is a consistent copy of the registry at one store point.
type Snapshot struct {
	Counters []CounterValue
	Gauges   []GaugeValue
}

// Sum totals every counter series with the given name across labels
// (e.g. the network-wide buffer writes over all routers and ports).
func (s Snapshot) Sum(name string) uint64 {
	var total uint64
	for _, c := range s.Counters {
		if c.Name == name {
			total += c.Value
		}
	}
	return total
}

// Gauge returns the first gauge with the given name (ok=false when
// absent).
func (s Snapshot) Gauge(name string) (float64, bool) {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value, true
		}
	}
	return 0, false
}

// Snapshot copies the registry's current series and values. Safe for
// concurrent use; the copy reflects the last serial store, which lags
// a running simulation by at most the flush cadence.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters: make([]CounterValue, len(r.counters)),
		Gauges:   make([]GaugeValue, len(r.gauges)),
	}
	for i, d := range r.counters {
		s.Counters[i] = CounterValue{Name: d.name, Labels: d.labels, Value: r.cvals[i]}
	}
	for i, d := range r.gauges {
		s.Gauges[i] = GaugeValue{Name: d.name, Labels: d.labels, Value: r.gvals[i]}
	}
	return s
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format: series grouped by name under one HELP/TYPE
// header, names in lexical order, label sets in registration order
// within a name — a deterministic rendering of a deterministic state.
func (r *Registry) WritePrometheus(w io.Writer) error {
	s := r.Snapshot()
	type row struct {
		desc  string // name{labels}
		value string
	}
	groups := map[string][]row{}
	helps := map[string]string{}
	types := map[string]string{}
	var names []string
	add := func(name, help, typ string, labels Labels, value string) {
		if _, seen := groups[name]; !seen {
			names = append(names, name)
			helps[name] = help
			types[name] = typ
		}
		desc := name
		if ls := labels.String(); ls != "" {
			desc = name + "{" + ls + "}"
		}
		groups[name] = append(groups[name], row{desc: desc, value: value})
	}
	r.mu.RLock()
	for i, d := range r.counters {
		add(d.name, d.help, "counter", d.labels, fmt.Sprintf("%d", s.Counters[i].Value))
	}
	for i, d := range r.gauges {
		add(d.name, d.help, "gauge", d.labels, formatFloat(s.Gauges[i].Value))
	}
	r.mu.RUnlock()
	sort.Strings(names)
	for _, name := range names {
		if h := helps[name]; h != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, h); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, types[name]); err != nil {
			return err
		}
		for _, rw := range groups[name] {
			if _, err := fmt.Fprintf(w, "%s %s\n", rw.desc, rw.value); err != nil {
				return err
			}
		}
	}
	return nil
}

// formatFloat renders a gauge value without exponent noise for the
// integral values (cycle counts) that dominate the gauge set.
func formatFloat(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
