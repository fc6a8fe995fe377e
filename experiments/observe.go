package experiments

import (
	"fmt"
	"sort"
	"strings"

	"vichar"
)

// Observation is one instrumented run: the usual Results next to the
// metrics-registry snapshot and the retained flit-event totals the
// live observability layer produced for the same simulation. The
// snapshot is a view over the very counters Results.Counters is
// derived from; it covers the whole run where Results.Counters is
// windowed to the measurement interval.
type Observation struct {
	Config   vichar.Config
	Results  vichar.Results
	Snapshot vichar.MetricsSnapshot
	Events   []vichar.FlitEvent
}

// Observe runs one configuration with the metrics registry and flit
// tracer switched on and returns the paired outputs. It is the
// in-process consumer of the Snapshot API that cmd/vichar-sim exposes
// over HTTP.
func Observe(cfg vichar.Config, opts Options) (*Observation, error) {
	cfg = opts.apply(cfg)
	cfg.Metrics = true
	if cfg.TraceEvents == 0 {
		cfg.TraceEvents = 1 << 15
	}
	sim, err := vichar.NewSimulator(cfg)
	if err != nil {
		return nil, err
	}
	defer sim.Close()
	res := sim.Run()
	snap, ok := sim.MetricsSnapshot()
	if !ok {
		return nil, fmt.Errorf("experiments: metrics registry missing after instrumented run")
	}
	return &Observation{
		Config:   cfg,
		Results:  res,
		Snapshot: snap,
		Events:   sim.FlitEvents(),
	}, nil
}

// observedTotals are the network-wide counter names Report renders,
// in presentation order.
var observedTotals = []string{
	"vichar_packets_created_total",
	"vichar_packets_ejected_total",
	"vichar_flits_ejected_total",
	"vichar_ni_flits_injected_total",
	"vichar_buffer_writes_total",
	"vichar_buffer_reads_total",
	"vichar_rc_total",
	"vichar_va_ops_total",
	"vichar_va_grants_total",
	"vichar_va_denials_total",
	"vichar_sa_ops_total",
	"vichar_sa_grants_total",
	"vichar_sa_denials_total",
	"vichar_xbar_traversals_total",
	"vichar_link_flits_total",
	"vichar_credit_stalls_total",
	"vichar_ni_credit_stalls_total",
}

// Report renders the observation as an aligned text table: registry
// totals, the busiest links and the retained event count.
func (o *Observation) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "instrumented run: %s, %dx%d mesh, rate %.3f, seed %d\n",
		o.Results.Label, o.Config.Width, o.Config.Height, o.Config.InjectionRate, o.Config.Seed)
	b.WriteString("\nregistry totals (network-wide):\n")
	for _, name := range observedTotals {
		fmt.Fprintf(&b, "  %-34s %12d\n", name, o.Snapshot.Sum(name))
	}

	type link struct {
		labels string
		flits  uint64
	}
	var links []link
	for _, c := range o.Snapshot.Counters {
		if c.Name == "vichar_link_flits_total" {
			links = append(links, link{c.Labels.String(), c.Value})
		}
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i].flits != links[j].flits {
			return links[i].flits > links[j].flits
		}
		return links[i].labels < links[j].labels
	})
	b.WriteString("\nbusiest links:\n")
	for i, l := range links {
		if i == 8 {
			break
		}
		fmt.Fprintf(&b, "  %-34s %12d flits\n", l.labels, l.flits)
	}

	fmt.Fprintf(&b, "\nflit events retained: %d\n", len(o.Events))
	return b.String()
}
