package network

import (
	"strconv"

	"vichar/internal/config"
	"vichar/internal/metrics"
	"vichar/internal/topology"
)

// obsState bundles the network's observability wiring: the registry —
// a view over the kernel's own counters, refreshed by walkSeries —
// the network-level gauges and, when tracing, the event tracer with
// one staging recorder per shard-owned node (index 1+id) plus one for
// the serial work (index 0), all in one slab. The view is stored and
// the recorders drained — in fixed index order — only from the serial
// side of the kernel (flushObs), which is what keeps registry and
// event-stream state bit-identical for any worker count.
type obsState struct {
	reg    *metrics.Registry
	tracer *metrics.Tracer
	recs   []metrics.Recorder

	// created and ejected are the network's packet totals, copied at
	// each flush: the series walk takes every counter by address.
	created, ejected uint64

	gCycle    metrics.GaugeID
	gOcc      metrics.GaugeID
	gVCs      metrics.GaugeID
	gInflight metrics.GaugeID
}

func newObsState(cfg *config.Config, nodes int) *obsState {
	o := &obsState{reg: metrics.NewRegistry()}
	if cfg.TraceEvents > 0 {
		o.tracer = metrics.NewTracer(o.reg, cfg.TraceEvents)
		o.recs = make([]metrics.Recorder, 1+nodes)
	}
	o.gCycle = o.reg.Gauge("vichar_cycle", "Current simulation cycle.", nil)
	o.gOcc = o.reg.Gauge("vichar_buffer_occupancy_fraction",
		"Network-wide input-buffer occupancy over total slots, at the last sample.", nil)
	o.gVCs = o.reg.Gauge("vichar_inuse_vcs_per_port_avg",
		"Mean in-use virtual channels per input port across the network, at the last sample.", nil)
	o.gInflight = o.reg.Gauge("vichar_packets_inflight",
		"Packets created but not yet fully ejected.", nil)
	return o
}

// recorder returns event recorder i, or nil when the layer is off or
// not tracing — the value components hold, and test before they build
// an event for StageEvent.
func (o *obsState) recorder(i int) *metrics.Recorder {
	if o == nil || o.recs == nil {
		return nil
	}
	return &o.recs[i]
}

// The exposed counter families, by the component that owns them.
var (
	famCreated       = metrics.Family{Name: "vichar_packets_created_total", Help: "Packets created and queued for injection."}
	famEjected       = metrics.Family{Name: "vichar_packets_ejected_total", Help: "Packets fully ejected at their destination."}
	famFlitsEjected  = metrics.Family{Name: "vichar_flits_ejected_total", Help: "Flits ejected at their destination."}
	famBufWrites     = metrics.Family{Name: "vichar_buffer_writes_total", Help: "Flit writes into router input buffers.", Labels: routerPortLabels}
	famBufReads      = metrics.Family{Name: "vichar_buffer_reads_total", Help: "Flit reads out of router input buffers.", Labels: routerPortLabels}
	famCreditStalls  = metrics.Family{Name: "vichar_credit_stalls_total", Help: "Cycles an active VC held a ready flit but lacked downstream credit.", Labels: routerPortLabels}
	famPortStalls    = metrics.Family{Name: "vichar_port_stall_cycles_total", Help: "Cycles an input port's control logic was frozen by a fault-model stall.", Labels: routerPortLabels}
	famRC            = metrics.Family{Name: "vichar_rc_total", Help: "Head flits routed (route computation).", Labels: routerLabels}
	famVAOps         = metrics.Family{Name: "vichar_va_ops_total", Help: "VC allocator invocations.", Labels: routerLabels}
	famVAGrants      = metrics.Family{Name: "vichar_va_grants_total", Help: "Output VCs granted by the VC allocator.", Labels: routerLabels}
	famVADenials     = metrics.Family{Name: "vichar_va_denials_total", Help: "VC allocation requests denied this cycle.", Labels: routerLabels}
	famSAOps         = metrics.Family{Name: "vichar_sa_ops_total", Help: "Switch allocator invocations.", Labels: routerLabels}
	famSAGrants      = metrics.Family{Name: "vichar_sa_grants_total", Help: "Crossbar passages granted by the switch allocator.", Labels: routerLabels}
	famSADenials     = metrics.Family{Name: "vichar_sa_denials_total", Help: "Switch allocation requests denied this cycle.", Labels: routerLabels}
	famXbar          = metrics.Family{Name: "vichar_xbar_traversals_total", Help: "Flits through the crossbar.", Labels: routerLabels}
	famReroutes      = metrics.Family{Name: "vichar_escape_reroutes_total", Help: "Packets re-channelled onto the escape network after the deadlock threshold.", Labels: routerLabels}
	famLinkDrops     = metrics.Family{Name: "vichar_link_flits_dropped_total", Help: "Flits lost on a link by the fault model.", Labels: linkLabels}
	famLinkCorrupts  = metrics.Family{Name: "vichar_link_flits_corrupted_total", Help: "Flits failing their CRC at the receiver under the fault model.", Labels: linkLabels}
	famLinkRetx      = metrics.Family{Name: "vichar_link_retransmits_total", Help: "Flits re-sent from a link's retransmission buffer.", Labels: linkLabels}
	famLinkFlits     = metrics.Family{Name: "vichar_link_flits_total", Help: "Flits delivered over each router-to-router link.", Labels: linkLabels}
	famNIInjected    = metrics.Family{Name: "vichar_ni_flits_injected_total", Help: "Flits the network interface pushed onto its injection link.", Labels: nodeLabels}
	famNICreditStall = metrics.Family{Name: "vichar_ni_credit_stalls_total", Help: "Cycles the network interface held a flit but lacked injection credit.", Labels: nodeLabels}
)

// routerPortLabels renders key {router, port}.
func routerPortLabels(k metrics.Key) metrics.Labels {
	return metrics.Labels{{Key: "router", Value: strconv.Itoa(k[0])}, {Key: "port", Value: topology.PortName(k[1])}}
}

// routerLabels renders key {router}.
func routerLabels(k metrics.Key) metrics.Labels {
	return metrics.Labels{{Key: "router", Value: strconv.Itoa(k[0])}}
}

// linkLabels renders key {from, to, port}.
func linkLabels(k metrics.Key) metrics.Labels {
	return metrics.Labels{
		{Key: "from", Value: strconv.Itoa(k[0])},
		{Key: "to", Value: strconv.Itoa(k[1])},
		{Key: "port", Value: topology.PortName(k[2])},
	}
}

// nodeLabels renders key {node}.
func nodeLabels(k metrics.Key) metrics.Labels {
	return metrics.Labels{{Key: "node", Value: strconv.Itoa(k[0])}}
}

// walkSeries visits one counter series per exposed kernel counter — the
// network core, then every router, link and network interface in index
// order — passing each counter by address. It is the registry's one
// series walk (metrics.Walk): registration counts through it, the store
// pass copies the values through it, and the first reader describes
// the series through it, reading nothing but the network's fixed
// structure.
func (n *Network) walkSeries(w *metrics.Walk) {
	o := n.obs
	none := metrics.Key{}
	w.Counter(&famCreated, none, &o.created)
	w.Counter(&famEjected, none, &o.ejected)
	w.Counter(&famFlitsEjected, none, &n.ejectedFlits)
	for id, r := range n.routers {
		a := r.Activity()
		for p := range a.BufWrites {
			k := metrics.Key{id, p}
			w.Counter(&famBufWrites, k, &a.BufWrites[p])
			w.Counter(&famBufReads, k, &a.BufReads[p])
			w.Counter(&famCreditStalls, k, &a.CreditStalls[p])
			w.Counter(&famPortStalls, k, &a.PortStalls[p])
		}
		k := metrics.Key{id}
		w.Counter(&famRC, k, &a.RC)
		w.Counter(&famVAOps, k, &a.VAOps)
		w.Counter(&famVAGrants, k, &a.VAGrants)
		w.Counter(&famVADenials, k, &a.VADenials)
		w.Counter(&famSAOps, k, &a.SAOps)
		w.Sum(&famSAGrants, k, a.BufReads) // a buffer read is one switch grant
		w.Counter(&famSADenials, k, &a.SADenials)
		w.Sum(&famXbar, k, a.BufReads) // and one crossbar traversal
		w.Counter(&famReroutes, k, &a.Reroutes)
	}
	for li, m := range n.linkMeta {
		k := metrics.Key{m.From, m.To, m.Port}
		if n.fplan != nil {
			fs := &n.faultLinks[li]
			w.Counter(&famLinkDrops, k, &fs.Drops)
			w.Counter(&famLinkCorrupts, k, &fs.Corrupts)
			w.Counter(&famLinkRetx, k, &fs.Retransmits)
		}
		w.Counter(&famLinkFlits, k, &n.linkFlits[li])
	}
	for id, s := range n.nis {
		k := metrics.Key{id}
		w.Counter(&famNIInjected, k, &s.injected)
		w.Counter(&famNICreditStall, k, &s.creditStalls)
	}
}

// storeSeries refreshes the registry's counter series from the
// kernel's counters. Serial work only.
func (n *Network) storeSeries() {
	o := n.obs
	o.created, o.ejected = uint64(n.created), uint64(n.collector.Ejected())
	o.reg.Store()
}

// flushObs commits the observability layer: the registry's counter
// series are overwritten from the kernel's counters, staged events
// drain into the tracer in fixed recorder index order, and the
// network-level gauges refresh. Runs only on the serial side of the
// kernel — Step's sample cadence and the end of Run/Drain — after the
// batch barrier, so counters and recorders are quiescent. A live
// scrape therefore lags the simulation by at most SampleEvery cycles.
func (n *Network) flushObs() {
	o := n.obs
	if o == nil {
		return
	}
	n.storeSeries()
	if o.tracer != nil {
		o.tracer.Drain(o.recs)
	}
	o.reg.SetGauge(o.gCycle, float64(n.now))
	o.reg.SetGauge(o.gInflight, float64(n.created-n.collector.Ejected()))
}
