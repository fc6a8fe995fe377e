package network

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"vichar/internal/config"
	"vichar/internal/ref"
	"vichar/internal/stats"
	"vichar/internal/topology"
)

// refCase is one configuration the kernel runs beside internal/ref.
type refCase struct {
	name string
	cfg  config.Config
}

// refCases lists every configuration of the digest wall's fuzz table
// inside the reference model's scope — those leave the wall, because
// the lockstep checks everything their digest hashed — followed by the
// paper platform, the 8x8 mesh at 16 slots per port, for every
// organization: under XY routing below and near saturation, under
// minimal-adaptive routing with one escape VC at the same two rates
// (Figure 12(i)), as an XY torus near saturation, and adaptive at 0.30
// under a fault plan.
func refCases() []refCase {
	var cases []refCase
	for i := 0; i < wallFuzzCount; i++ {
		if cfg := fuzzedConfig(i); ref.InScope(&cfg) {
			cases = append(cases, refCase{fuzzedName(i, &cfg), cfg})
		}
	}
	paper := func(arch config.BufferArch, rate float64, variant string, edit func(*config.Config)) {
		cfg := config.Default()
		cfg.Arch = arch
		cfg.InjectionRate = rate
		cfg.WarmupPackets, cfg.MeasurePackets = 1000, 3000
		edit(&cfg)
		cases = append(cases, refCase{fmt.Sprintf("paper-%s-%.2f%s", cfg.Label(), rate, variant), cfg})
	}
	for _, arch := range allArchs {
		for _, rate := range []float64{0.10, 0.40} {
			paper(arch, rate, "", func(*config.Config) {})
		}
	}
	// Below saturation no adaptive head waits long enough to escape, so
	// the 0.10 adaptive cases run a third of the packets.
	for _, arch := range allArchs {
		paper(arch, 0.10, "-adaptive", func(c *config.Config) {
			c.Routing, c.EscapeVCs = config.MinimalAdaptive, 1
			c.WarmupPackets, c.MeasurePackets = 300, 1000
		})
		paper(arch, 0.40, "-adaptive", func(c *config.Config) { c.Routing, c.EscapeVCs = config.MinimalAdaptive, 1 })
		paper(arch, 0.40, "-torus", func(c *config.Config) { c.Torus = true })
	}
	// Every fault class at once (DESIGN.md §12): rate-driven drops,
	// corruptions and stalls, one scheduled drop, one frozen port, and
	// an interior link killed early, so heads bound through it re-channel
	// onto the escape tree.
	for _, arch := range allArchs {
		paper(arch, 0.30, "-faults", func(c *config.Config) {
			c.Routing, c.EscapeVCs = config.MinimalAdaptive, 1
			c.WarmupPackets, c.MeasurePackets = 300, 1000
			c.Faults = config.FaultsConfig{Seed: 5, DropRate: 0.002, CorruptRate: 0.001, StallRate: 0.0005, Events: []config.FaultEvent{
				{Cycle: 40, Kind: config.DropFlit, Node: 27, Port: topology.East},
				{Cycle: 60, Kind: config.StallPort, Node: 36, Port: topology.West, Cycles: 40},
				{Cycle: 50, Kind: config.KillLink, Node: 28, Port: topology.North},
			}}
		})
	}
	return cases
}

// reach is what one lockstep case exercised of the escape network, the
// torus and the fault plan: re-channelled heads (on the escape tree when
// kill is set), the measured load on wraparound links, and the run's
// fault tallies.
type reach struct {
	arch     config.BufferArch
	kill     bool
	reroutes uint64
	wrapLoad float64
	faults   stats.Counters
}

// TestRefLockstep steps internal/ref in lockstep with the kernel. Every
// cycle both must have ejected the same packets and flits; at the end
// the Results JSON must match byte for byte (with the latencies, the
// wall digest's inputs), and so must the windowed counters and every
// router's Activity. Once every case has passed, the cases together
// must have driven the escape path in each organization, carried flits
// on a torus's wraparound links and exercised every fault class, so the
// model's escape, torus and fault code is known to be checked.
func TestRefLockstep(t *testing.T) {
	cases := refCases()
	reached := make([]*reach, len(cases))
	t.Cleanup(func() { checkReach(t, reached) })
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			reached[i] = lockstep(t, c.cfg)
		})
	}
}

// checkReach fails unless every organization has a case that
// re-channelled a head onto the escape network and one, with a link
// kill, that did so onto the escape tree, some case loaded a
// wraparound link, and the cases together dropped, corrupted and
// retransmitted flits and stalled ports. A case filtered out or failed
// leaves its entry nil and the check undecided.
func checkReach(t *testing.T, reached []*reach) {
	rerouted, treed := map[config.BufferArch]bool{}, map[config.BufferArch]bool{}
	wrapped := false
	var faults stats.Counters
	for _, r := range reached {
		if r == nil {
			t.Log("escape, wraparound and fault coverage unchecked: not every case ran and passed")
			return
		}
		rerouted[r.arch] = rerouted[r.arch] || r.reroutes > 0
		treed[r.arch] = treed[r.arch] || r.kill && r.reroutes > 0
		wrapped = wrapped || r.wrapLoad > 0
		faults.Add(r.faults)
	}
	for _, arch := range allArchs {
		if !rerouted[arch] {
			t.Errorf("no %v case re-channels a packet onto the escape network", arch)
		}
		if !treed[arch] {
			t.Errorf("no %v case with a link kill re-channels a packet onto the escape tree", arch)
		}
	}
	if !wrapped {
		t.Error("no torus case carries flits on a wraparound link")
	}
	for _, c := range []struct {
		what string
		n    uint64
	}{{"drops", faults.FlitDrops}, {"corrupts", faults.FlitCorrupts}, {"retransmits", faults.Retransmits}, {"stalls a port", faults.StallCycles}} {
		if c.n == 0 {
			t.Errorf("no case %s", c.what)
		}
	}
}

func lockstep(t *testing.T, cfg config.Config) *reach {
	t.Helper()
	n := New(&cfg)
	defer n.Close()
	r, err := ref.New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := n.RunWith(func(now int64) error {
		r.Step()
		if kp, rp, kf, rf := n.collector.Ejected(), r.Collector().Ejected(), n.ejectedFlits, r.EjectedFlits(); kp != rp || kf != rf {
			return fmt.Errorf("cycle %d: kernel ejected %d packets (%d flits), reference %d (%d)", now, kp, kf, rp, rf)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := r.Finish()
	gj, err := json.Marshal(&got)
	if err != nil {
		t.Fatal(err)
	}
	wj, err := json.Marshal(&want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gj, wj) {
		t.Errorf("Results differ after %d cycles:\nkernel    %s\nreference %s", n.now, gj, wj)
	}
	if kl, rl := n.Collector().Latencies(), r.Collector().Latencies(); !slices.Equal(kl, rl) {
		i := 0
		for i < min(len(kl), len(rl)) && kl[i] == rl[i] {
			i++
		}
		t.Errorf("latencies differ from packet %d of %d (kernel) / %d (reference)", i, len(kl), len(rl))
	}
	if got.Counters != want.Counters {
		t.Errorf("windowed counters: kernel %+v, reference %+v", got.Counters, want.Counters)
	}
	rc := &reach{arch: cfg.Arch, kill: cfg.Faults.HasHardFaults(), faults: n.totalCounters()}
	mesh := topology.New(cfg.Width, cfg.Height)
	for _, l := range got.ChannelLoads {
		if _, ok := mesh.Neighbor(l.From, l.Port); !ok {
			rc.wrapLoad += l.Load
		}
	}
	for id := range n.routers {
		rc.reroutes += n.routers[id].Activity().Reroutes
		ka, ra := reflect.ValueOf(*n.routers[id].Activity()), reflect.ValueOf(r.Activity(id))
		for i := 0; i < ka.NumField(); i++ {
			name := ka.Type().Field(i).Name
			rf := ra.FieldByName(name)
			if !rf.IsValid() {
				t.Fatalf("ref.Activity has no field %s", name)
			}
			if !reflect.DeepEqual(ka.Field(i).Interface(), rf.Interface()) {
				t.Errorf("router %d Activity.%s: kernel %v, reference %v", id, name, ka.Field(i), rf)
			}
		}
	}
	if t.Failed() {
		return nil
	}
	return rc
}
