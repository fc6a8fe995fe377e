// Command vichar-sim runs one NoC simulation from command-line flags
// and prints its metrics: the interactive front door to the
// simulator.
//
// Example — compare ViChaR to a generic buffer near saturation:
//
//	vichar-sim -arch vichar -rate 0.40
//	vichar-sim -arch generic -rate 0.40
//
// Exit status: 0 when the run completes or hits its cycle cap, 1 on a
// configuration, trace or file error, 2 on a bad flag, and 3 when the
// forward-progress watchdog finds the network wedged — the error, with
// the state of the router holding the most flits, goes to stderr.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"

	"vichar"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vichar-sim: ")

	var (
		arch      = flag.String("arch", "vichar", "buffer architecture: generic|vichar|damq|fccb")
		width     = flag.Int("width", 8, "mesh width")
		height    = flag.Int("height", 8, "mesh height")
		vcs       = flag.Int("vcs", 4, "virtual channels per port (fixed-VC schemes; design v for ViChaR)")
		depth     = flag.Int("depth", 4, "per-VC FIFO depth k (generic)")
		slots     = flag.Int("slots", 0, "buffer slots per port (default vcs*depth)")
		rate      = flag.Float64("rate", 0.25, "injection rate, flits/node/cycle")
		traffic   = flag.String("traffic", "ur", "traffic process: ur|ss")
		dest      = flag.String("dest", "nr", "destination pattern: nr|tornado|transpose|bitcomplement|hotspot")
		routing   = flag.String("routing", "xy", "routing: xy|adaptive")
		torus     = flag.Bool("torus", false, "wrap the mesh into a torus (requires escape VCs; enabled automatically)")
		warmup    = flag.Int("warmup", 10_000, "warm-up packets (ejected)")
		measure   = flag.Int("measure", 30_000, "measured packets (ejected)")
		seed      = flag.Int64("seed", 1, "random seed")
		series    = flag.Bool("vc-series", false, "print the in-use VC time series")
		grid      = flag.Bool("vc-grid", false, "print the per-node in-use VC grid")
		jsonOut   = flag.Bool("json", false, "print results as JSON instead of text")
		spec      = flag.Bool("speculative", false, "use the speculative 3-stage router pipeline")
		pktMax    = flag.Int("packet-max", 0, "maximum packet size for variable-size packets (0 = fixed)")
		traceIn   = flag.String("replay-trace", "", "replay a recorded packet trace instead of generated traffic")
		traceOut  = flag.String("record-trace", "", "record the packet workload to this file")
		confIn    = flag.String("config", "", "load the full configuration from a JSON file (other config flags are ignored)")
		confOut   = flag.String("save-config", "", "write the resolved configuration as JSON and exit")
		workers   = flag.Int("workers", 0, "cycle-kernel shards, run on at most GOMAXPROCS goroutines; 0 = one lane per CPU, 1 = serial, results identical at any setting")
		faultSpec = flag.String("faults", "",
			"fault model spec: seed=N,drop=R,corrupt=R,retx=N,stall=R[:N],kill=NODE.PORT@CYC,freeze=NODE.PORT@CYC+N,drop1=NODE.PORT@CYC")
		txnSpec = flag.String("txn", "",
			"transaction layer spec: rate=R,window=N,mix=READ/WRITE/ATOMIC,posted=F,service=N,queue=N,edge=B,reqs=N,shared=B,seed=N")
		auditOn = flag.Bool("audit", false, "run the per-cycle invariant auditor (slow; catches conservation bugs)")

		ckptEvery = flag.Int64("checkpoint-every", 0, "write a checkpoint every N cycles (requires -checkpoint-file)")
		ckptFile  = flag.String("checkpoint-file", "", "checkpoint destination; atomically replaced at each cadence")
		restoreIn = flag.String("restore", "", "resume from a checkpoint file (config flags are ignored; -rate/-warmup/-measure override the snapshot)")

		metricsAddr = flag.String("metrics-addr", "",
			"serve live Prometheus-text metrics at this address (/metrics, /trace, /debug/pprof/); implies -metrics")
		metricsOn  = flag.Bool("metrics", false, "enable the metrics registry even without -metrics-addr")
		traceCap   = flag.Int("trace-events", 0, "retain the newest N flit lifecycle events (implies -metrics)")
		traceJSONL = flag.String("trace-jsonl", "", "write the retained flit events to this JSONL file after the run (implies -trace-events 65536 unless set)")
	)
	flag.Parse()

	var cfg vichar.Config
	if *confIn != "" {
		f, err := os.Open(*confIn)
		if err != nil {
			log.Fatal(err)
		}
		loaded, err := vichar.LoadConfig(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		cfg = loaded
	} else {
		var err error
		cfg = vichar.DefaultConfig()
		if cfg.Arch, err = vichar.ParseBufferArch(*arch); err != nil {
			log.Fatal(err)
		}
		cfg.Width, cfg.Height = *width, *height
		cfg.VCs, cfg.VCDepth = *vcs, *depth
		cfg.BufferSlots = *slots
		if cfg.BufferSlots == 0 {
			cfg.BufferSlots = *vcs * *depth
		}
		cfg.InjectionRate = *rate
		cfg.WarmupPackets, cfg.MeasurePackets = *warmup, *measure
		cfg.Seed = *seed
		if cfg.Traffic, err = vichar.ParseTraffic(*traffic); err != nil {
			log.Fatal(err)
		}
		if cfg.Dest, err = vichar.ParseDest(*dest); err != nil {
			log.Fatal(err)
		}
		if cfg.Routing, err = vichar.ParseRouting(*routing); err != nil {
			log.Fatal(err)
		}
		cfg.Speculative = *spec
		cfg.PacketSizeMax = *pktMax
		cfg.Torus = *torus
	}

	if *confOut != "" {
		f, err := os.Create(*confOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := vichar.SaveConfig(f, cfg); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *workers > 0 {
		cfg.Workers = *workers
	}
	if *faultSpec != "" {
		faults, err := vichar.ParseFaults(*faultSpec)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Faults = faults
	}
	if *txnSpec != "" {
		txn, err := vichar.ParseTxn(*txnSpec)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Txn = txn
	}
	if *auditOn {
		cfg.Audit = true
	}
	if *traceJSONL != "" && *traceCap == 0 {
		*traceCap = 1 << 16
	}
	if *metricsOn || *metricsAddr != "" {
		cfg.Metrics = true
	}
	if *traceCap > 0 {
		cfg.TraceEvents = *traceCap
	}

	if *traceIn != "" {
		cfg.InjectionRate = 0
	}
	var sim *vichar.Simulator
	if *restoreIn != "" {
		if *traceIn != "" {
			log.Fatal("-restore cannot be combined with -replay-trace; the snapshot carries its own schedule")
		}
		blob, err := os.ReadFile(*restoreIn)
		if err != nil {
			log.Fatal(err)
		}
		var o vichar.Overrides
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "rate":
				o.InjectionRate = rate
			case "warmup":
				o.WarmupPackets = warmup
			case "measure":
				o.MeasurePackets = measure
			}
		})
		if sim, err = vichar.RestoreWith(blob, o); err != nil {
			log.Fatal(err)
		}
		cfg = sim.Config()
		fmt.Printf("restored      : %s at cycle %d\n", *restoreIn, sim.Now())
	} else {
		var err error
		if sim, err = vichar.NewSimulator(cfg); err != nil {
			log.Fatal(err)
		}
	}
	defer sim.Close()

	if *metricsAddr != "" {
		h := sim.MetricsHandler()
		mux := http.NewServeMux()
		mux.Handle("/metrics", http.StripPrefix("/metrics", h))
		mux.Handle("/trace", h)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		srv := &http.Server{Addr: *metricsAddr, Handler: mux}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Fatal(err)
			}
		}()
		fmt.Printf("metrics       : http://%s/metrics (pprof at /debug/pprof/)\n", *metricsAddr)
	}
	if *traceOut != "" {
		sim.RecordTrace()
	}
	if *traceIn != "" {
		f, err := os.Open(*traceIn)
		if err != nil {
			log.Fatal(err)
		}
		entries, err := vichar.ReadTrace(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		if err := sim.LoadTrace(entries); err != nil {
			log.Fatal(err)
		}
	}
	var res vichar.Results
	if *ckptEvery > 0 {
		if *ckptFile == "" {
			log.Fatal("-checkpoint-every requires -checkpoint-file")
		}
		var err error
		res, err = sim.RunCheckpointed(*ckptEvery, func(cycle int64, data []byte) error {
			tmp := *ckptFile + ".tmp"
			if err := os.WriteFile(tmp, data, 0o644); err != nil {
				return err
			}
			return os.Rename(tmp, *ckptFile)
		})
		if err != nil && !errors.As(err, new(*vichar.WedgeError)) {
			log.Fatal(err)
		}
	} else {
		res = sim.Run()
	}
	if *traceJSONL != "" {
		f, err := os.Create(*traceJSONL)
		if err != nil {
			log.Fatal(err)
		}
		if err := sim.WriteFlitEventsJSONL(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := vichar.WriteTrace(f, sim.RecordedTrace()); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
	// A wedged run's results describe only the packets that got out
	// before the deadlock: report the watchdog's verdict instead.
	if err := sim.CheckProgress(); err != nil {
		fmt.Fprintf(os.Stderr, "vichar-sim: %v", err)
		os.Exit(3)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			log.Fatal(err)
		}
		return
	}

	fmt.Printf("configuration : %s, %dx%d mesh, %s traffic, %s destinations, %s routing\n",
		res.Label, cfg.Width, cfg.Height, cfg.Traffic, cfg.Dest, cfg.Routing)
	fmt.Printf("offered load  : %.3f flits/node/cycle\n", cfg.InjectionRate)
	fmt.Printf("avg latency   : %.2f cycles (%.2f queueing + %.2f network)\n",
		res.AvgLatency, res.AvgQueueLatency, res.AvgNetworkLatency)
	fmt.Printf("latency tail  : p50 %.1f / p95 %.1f / p99 %.1f / max %d cycles\n",
		res.P50Latency, res.P95Latency, res.P99Latency, res.MaxLatency)
	fmt.Printf("throughput    : %.2f flits/cycle\n", res.Throughput)
	fmt.Printf("peak channel  : %.3f flits/cycle\n", res.MaxChannelLoad)
	fmt.Printf("occupancy     : %.2f %%\n", res.AvgOccupancy*100)
	fmt.Printf("in-use VCs    : %.2f per port\n", res.AvgInUseVCs)
	fmt.Printf("network power : %.3f W\n", res.AvgPowerWatts)
	fmt.Printf("packets       : %d measured / %d ejected over %d cycles\n",
		res.MeasuredPackets, res.EjectedPackets, res.TotalCycles)
	if res.Txn != nil {
		fmt.Printf("transactions  : %d issued / %d retired, latency %.2f avg / p50 %.1f / p95 %.1f / p99 %.1f / max %d cycles\n",
			res.Txn.Issued, res.Txn.Retired,
			res.Txn.AvgLatency, res.Txn.P50Latency, res.Txn.P95Latency, res.Txn.P99Latency, res.Txn.MaxLatency)
	}
	if cfg.Faults.Enabled() {
		fmt.Printf("faults        : %d drops, %d corrupts, %d retransmits, %d stall cycles, %d escape reroutes\n",
			res.Counters.FlitDrops, res.Counters.FlitCorrupts, res.Counters.Retransmits,
			res.Counters.StallCycles, res.Counters.EscapeReroutes)
	}
	if res.Saturated {
		fmt.Println("NOTE          : run hit its cycle cap (network saturated at this load)")
	}

	if *grid {
		fmt.Println("\nper-node in-use VCs (per port):")
		for y := 0; y < cfg.Height; y++ {
			for x := 0; x < cfg.Width; x++ {
				fmt.Printf("%6.2f", res.PerNodeVCs[vichar.NodeAt(cfg, x, y)])
			}
			fmt.Println()
		}
	}
	if *series {
		fmt.Println("\nin-use VC time series (cycle value):")
		for _, p := range res.VCSeries {
			fmt.Printf("%d %.3f\n", p.Cycle, p.Value)
		}
	}
	os.Exit(0)
}
