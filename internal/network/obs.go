package network

import (
	"fmt"
	"strconv"

	"vichar/internal/config"
	"vichar/internal/metrics"
	"vichar/internal/topology"
)

// obsState bundles the network's observability wiring: the registry —
// a view over the kernel's own counters, refreshed by storeSeries —
// the network-level gauges and, when tracing, the event tracer with
// one staging recorder per shard-owned node (index 1+id) plus one for
// the serial phase (index 0). The view is stored and the recorders
// drained — in fixed index order — only from the serial side of the
// kernel (flushObs), which is what keeps registry and event-stream
// state bit-identical for any worker count.
type obsState struct {
	reg    *metrics.Registry
	tracer *metrics.Tracer
	recs   []*metrics.Recorder

	gCycle    metrics.GaugeID
	gOcc      metrics.GaugeID
	gVCs      metrics.GaugeID
	gInflight metrics.GaugeID
}

func newObsState(cfg *config.Config, nodes int) *obsState {
	o := &obsState{reg: metrics.NewRegistry()}
	if cfg.TraceEvents > 0 {
		o.tracer = metrics.NewTracer(o.reg, cfg.TraceEvents)
		o.recs = make([]*metrics.Recorder, 1+nodes)
		for i := range o.recs {
			o.recs[i] = &metrics.Recorder{}
		}
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
	return o.recs[i]
}

// registerSeries registers one counter series per exposed kernel
// counter — the network core, then every router, link and network
// interface in index order — and binds the store pass that walks the
// same order. A no-op with the layer off.
func (n *Network) registerSeries() {
	reg := n.Metrics()
	if reg == nil {
		return
	}
	n.storeFn = n.storeSeries
	reg.Counter("vichar_packets_created_total", "Packets created and queued for injection.", nil)
	reg.Counter("vichar_packets_ejected_total", "Packets fully ejected at their destination.", nil)
	reg.Counter("vichar_flits_ejected_total", "Flits ejected at their destination.", nil)
	for id := range n.routers {
		router := metrics.Label{Key: "router", Value: strconv.Itoa(id)}
		for p := 0; p < n.cfg.Ports(); p++ {
			l := metrics.Labels{router, {Key: "port", Value: topology.PortName(p)}}
			reg.Counter("vichar_buffer_writes_total", "Flit writes into router input buffers.", l)
			reg.Counter("vichar_buffer_reads_total", "Flit reads out of router input buffers.", l)
			reg.Counter("vichar_credit_stalls_total",
				"Cycles an active VC held a ready flit but lacked downstream credit.", l)
			reg.Counter("vichar_port_stall_cycles_total",
				"Cycles an input port's control logic was frozen by a fault-model stall.", l)
		}
		l := metrics.Labels{router}
		reg.Counter("vichar_rc_total", "Head flits routed (route computation).", l)
		reg.Counter("vichar_va_ops_total", "VC allocator invocations.", l)
		reg.Counter("vichar_va_grants_total", "Output VCs granted by the VC allocator.", l)
		reg.Counter("vichar_va_denials_total", "VC allocation requests denied this cycle.", l)
		reg.Counter("vichar_sa_ops_total", "Switch allocator invocations.", l)
		reg.Counter("vichar_sa_grants_total", "Crossbar passages granted by the switch allocator.", l)
		reg.Counter("vichar_sa_denials_total", "Switch allocation requests denied this cycle.", l)
		reg.Counter("vichar_xbar_traversals_total", "Flits through the crossbar.", l)
		reg.Counter("vichar_escape_reroutes_total",
			"Packets re-channelled onto the escape network after the deadlock threshold.", l)
	}
	for _, m := range n.linkMeta {
		l := metrics.Labels{
			{Key: "from", Value: strconv.Itoa(m.From)},
			{Key: "to", Value: strconv.Itoa(m.To)},
			{Key: "port", Value: topology.PortName(m.Port)},
		}
		if n.fplan != nil {
			reg.Counter("vichar_link_flits_dropped_total", "Flits lost on a link by the fault model.", l)
			reg.Counter("vichar_link_flits_corrupted_total",
				"Flits failing their CRC at the receiver under the fault model.", l)
			reg.Counter("vichar_link_retransmits_total", "Flits re-sent from a link's retransmission buffer.", l)
		}
		reg.Counter("vichar_link_flits_total", "Flits delivered over each router-to-router link.", l)
	}
	for id := range n.nis {
		l := metrics.Labels{{Key: "node", Value: strconv.Itoa(id)}}
		reg.Counter("vichar_ni_flits_injected_total",
			"Flits the network interface pushed onto its injection link.", l)
		reg.Counter("vichar_ni_credit_stalls_total",
			"Cycles the network interface held a flit but lacked injection credit.", l)
	}
}

// storeSeries is the registry's store pass (bound once as n.storeFn,
// so a flush allocates no method value):
// it overwrites every counter series with its owner's current
// absolute count, in registerSeries order. Serial phase only.
func (n *Network) storeSeries(vals []uint64) {
	vals[0] = uint64(n.created)
	vals[1] = uint64(n.collector.Ejected())
	vals[2] = n.ejectedFlits
	i := 3
	for _, r := range n.routers {
		a := r.Activity()
		reads := uint64(0)
		for p := range a.BufWrites {
			vals[i] = a.BufWrites[p]
			vals[i+1] = a.BufReads[p]
			vals[i+2] = a.CreditStalls[p]
			vals[i+3] = a.PortStalls[p]
			i += 4
			reads += a.BufReads[p]
		}
		vals[i] = a.RC
		vals[i+1] = a.VAOps
		vals[i+2] = a.VAGrants
		vals[i+3] = a.VADenials
		vals[i+4] = a.SAOps
		vals[i+5] = reads // sa_grants: a buffer read is one switch grant
		vals[i+6] = a.SADenials
		vals[i+7] = reads // xbar_traversals: and one crossbar traversal
		vals[i+8] = a.Reroutes
		i += 9
	}
	for li, flits := range n.linkFlits {
		if n.fplan != nil {
			fs := n.faultLinks[li]
			vals[i] = fs.Drops
			vals[i+1] = fs.Corrupts
			vals[i+2] = fs.Retransmits
			i += 3
		}
		vals[i] = flits
		i++
	}
	for _, s := range n.nis {
		vals[i] = s.injected
		vals[i+1] = s.creditStalls
		i += 2
	}
	if i != len(vals) {
		//vichar:invariant registerSeries and storeSeries walk the same components in the same order
		panic(fmt.Sprintf("network: store pass wrote %d of %d counter series", i, len(vals)))
	}
}

// flushObs commits the observability layer: the registry's counter
// series are overwritten from the kernel's counters, staged events
// drain into the tracer in fixed recorder index order, and the
// network-level gauges refresh. Runs only on the serial side of the
// kernel — Step's sample cadence and the end of Run/Drain — after the
// compute barrier, so counters and recorders are quiescent. A live
// scrape therefore lags the simulation by at most SampleEvery cycles.
func (n *Network) flushObs() {
	o := n.obs
	if o == nil {
		return
	}
	o.reg.Store(n.storeFn)
	if o.tracer != nil {
		o.tracer.Drain(o.recs)
	}
	o.reg.SetGauge(o.gCycle, float64(n.now))
	o.reg.SetGauge(o.gInflight, float64(n.created-n.collector.Ejected()))
}
