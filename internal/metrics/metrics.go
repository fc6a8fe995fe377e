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
// its counter series as one walk over its components (Counters, Walk):
// construction only counts the series, the store pass — run in the
// serial phase of the kernel (DESIGN.md §10), at the sample cadence
// plus a final flush — copies the current absolute values in under one
// lock acquisition (Store), and the series' names, help and labels are
// built from the network's fixed structure by the first reader
// (Snapshot, WritePrometheus), once per registry. Values are therefore
// bit-identical for any worker count, building an observed network
// costs what building a plain one does, and concurrent readers (the
// HTTP exporter, the Snapshot API) only ever take the registry lock,
// never touch kernel state.
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
	"unsafe"
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

// Family is one counter metric: its name, its help text and how the
// key of one of its series renders as labels. Families are static
// data; the owner's walk names one for every series it visits.
type Family struct {
	Name, Help string
	// Labels renders the label set of the series with key k; nil for
	// an unlabeled family.
	Labels func(k Key) Labels
}

// Key identifies a series within its family by up to three integers —
// a router and a port, a link's endpoints and port, a node — which
// the family's Labels renders.
type Key [3]int

// walkMode is what a Walk does at each series.
type walkMode uint8

const (
	counting   walkMode = iota // only count the series
	storing                    // write each series' value
	describing                 // build each series' descriptor
)

// Walk is one pass of the owner's series walk over its counters, in
// registration order. The same walk function sizes the registry, stores
// its values and describes its series, so the three cannot disagree on
// the order. A walk reads a value only while storing, so it must pass
// each counter by address: describing runs on a reader's goroutine,
// concurrently with the kernel that writes the counters.
type Walk struct {
	mode  walkMode
	n     int          // series visited so far
	vals  []uint64     // storing: the registry's value slots
	descs []seriesDesc // describing: the descriptors built so far
}

// Counter visits one series whose value is the counter at v.
func (w *Walk) Counter(f *Family, k Key, v *uint64) {
	switch w.mode {
	case storing:
		w.vals[w.n] = *v
	case describing:
		w.describe(f, k)
	}
	w.n++
}

// Sum visits one series whose value is the sum of the counters in vs.
func (w *Walk) Sum(f *Family, k Key, vs []uint64) {
	switch w.mode {
	case storing:
		var total uint64
		for _, v := range vs {
			total += v
		}
		w.vals[w.n] = total
	case describing:
		w.describe(f, k)
	}
	w.n++
}

// describe appends the descriptor of the series k of family f.
func (w *Walk) describe(f *Family, k Key) {
	d := seriesDesc{name: f.Name, help: f.Help}
	if f.Labels != nil {
		d.labels = f.Labels(k)
	}
	w.descs = append(w.descs, d)
}

// Registry holds the last stored value of every registered series.
// All mutation goes through Store and SetGauge — serial-phase
// operations — while Snapshot and WritePrometheus may be called from
// any goroutine (the HTTP exporter's scrape path).
type Registry struct {
	mu    sync.RWMutex
	walk  func(w *Walk) // the owner's counter walk; nil when none is registered
	store Walk          // the store pass's walk, reused so a store allocates nothing
	cvals []uint64

	// described guards counters, the series descriptors, which the
	// first reader builds.
	described sync.Once
	counters  []seriesDesc

	gauges []seriesDesc
	gvals  []float64
}

// NewRegistry returns an empty registry. Register the counter walk
// (Counters) and every gauge at construction time, before the first
// concurrent reader.
func NewRegistry() *Registry { return &Registry{} }

// Counters registers the owner's counter series: walk visits each one,
// in a fixed order, through the Walk it is handed. Registration only
// counts them; Store writes their values and the first reader builds
// their descriptors, each by running walk again. Call at most once.
func (r *Registry) Counters(walk func(w *Walk)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.store = Walk{mode: counting}
	walk(&r.store)
	r.walk = walk
	r.cvals = make([]uint64, r.store.n)
	r.store.mode, r.store.vals = storing, r.cvals
}

// Store refreshes every counter series under one lock acquisition,
// overwriting each with the owning component's current absolute count.
// Serial phase only — the walk reads kernel state, which must be
// quiescent.
func (r *Registry) Store() {
	if r.walk == nil {
		return
	}
	r.mu.Lock()
	r.store.n = 0
	r.walk(&r.store)
	r.mu.Unlock()
}

// describe builds the counter series' descriptors; run once, by the
// first reader. The walk reads only the owner's fixed structure and
// the addresses of its counters, never a value, so it is safe beside
// the running kernel.
func (r *Registry) describe() {
	if r.walk == nil {
		return
	}
	w := Walk{mode: describing, descs: make([]seriesDesc, 0, len(r.cvals))}
	r.walk(&w)
	r.counters = w.descs
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
//
// The network keeps its recorders in one slab, each padded to a 64-byte
// cache line, so recorders of neighbouring shards, adjacent in the
// slab, do not share one.
type Recorder struct {
	events []record
	_      [64 - unsafe.Sizeof([]record(nil))]byte
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
	r.described.Do(r.describe)
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters: make([]CounterValue, len(r.cvals)),
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
