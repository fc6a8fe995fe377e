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
)

// refCase is one configuration the kernel runs beside internal/ref.
type refCase struct {
	name string
	cfg  config.Config
}

// refCases lists every configuration of the digest wall's fuzz table
// inside the reference model's scope — those leave the wall, because
// the lockstep checks everything their digest hashed — followed by the
// paper platform: the 8x8 mesh at 16 slots per port, every
// organization, below and near saturation.
func refCases() []refCase {
	var cases []refCase
	for i := 0; i < wallFuzzCount; i++ {
		if cfg := fuzzedConfig(i); ref.InScope(&cfg) {
			cases = append(cases, refCase{fuzzedName(i, &cfg), cfg})
		}
	}
	for _, arch := range allArchs {
		for _, rate := range []float64{0.10, 0.40} {
			cfg := config.Default()
			cfg.Arch = arch
			cfg.InjectionRate = rate
			cfg.WarmupPackets, cfg.MeasurePackets = 1000, 3000
			cases = append(cases, refCase{fmt.Sprintf("paper-%s-%.2f", cfg.Label(), rate), cfg})
		}
	}
	return cases
}

// TestRefLockstep steps internal/ref in lockstep with the kernel. Every
// cycle both must have ejected the same packets and flits; at the end
// the Results JSON must match byte for byte (with the latencies, the
// wall digest's inputs), and so must the windowed counters and every
// router's Activity.
func TestRefLockstep(t *testing.T) {
	for _, c := range refCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			lockstep(t, c.cfg)
		})
	}
}

func lockstep(t *testing.T, cfg config.Config) {
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
	for id := range n.routers {
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
}
