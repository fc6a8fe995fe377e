package vichar_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"vichar"
)

// update rewrites the golden fixtures instead of comparing:
//
//	go test . -run TestGolden -update
//
// Review the diff before committing — a changed fixture means the
// simulator's observable behavior changed.
var update = flag.Bool("update", false, "rewrite the golden fixtures under testdata/golden")

// goldenConfig is the fixture platform: a 4x4 mesh under the quick
// protocol, small enough that all five runs finish in seconds but
// busy enough that every pipeline stage, allocator and link sees
// traffic. Workers is left serial; TestWorkersBitIdentical separately
// guarantees any worker count produces these exact results.
func goldenConfig(arch vichar.BufferArch) vichar.Config {
	cfg := vichar.DefaultConfig()
	cfg.Width, cfg.Height = 4, 4
	cfg.Arch = arch
	cfg.InjectionRate = 0.25
	cfg.WarmupPackets = 30
	cfg.MeasurePackets = 200
	cfg.Seed = 1719
	return cfg
}

// goldenFaultyConfig is the faulted fixture run: ViChaR under the
// auditor with transient link faults and port stalls.
func goldenFaultyConfig() vichar.Config {
	cfg := goldenConfig(vichar.ViChaR)
	cfg.Audit = true
	cfg.Faults = vichar.Faults{
		Seed:        5,
		DropRate:    0.002,
		CorruptRate: 0.001,
		StallRate:   0.0005,
	}
	return cfg
}

// goldenTxnConfig is the transaction-layer fixture run for one
// architecture: the NIU request/response protocol, class-separated VC
// partition and memory-edge responders, no background traffic.
func goldenTxnConfig(arch vichar.BufferArch) vichar.Config {
	cfg := goldenConfig(arch)
	cfg.InjectionRate = 0
	cfg.Txn = vichar.Txn{
		Enabled:    true,
		Rate:       0.04,
		ReadFrac:   0.7,
		WriteFrac:  0.25,
		AtomicFrac: 0.05,
		PostedFrac: 0.5,
		MemEdge:    true,
	}
	return cfg
}

// TestGoldenResults is the regression wall: complete Results of one
// deterministic run per buffer architecture (plus one faulted run),
// compared byte-for-byte against committed fixtures. Any behavioral
// change — an arbitration tweak, a counter added, a float reordered —
// shows up as a fixture diff that must be reviewed and regenerated
// deliberately with -update.
func TestGoldenResults(t *testing.T) {
	cases := []struct {
		name string
		cfg  vichar.Config
	}{
		{"generic", goldenConfig(vichar.Generic)},
		{"vichar", goldenConfig(vichar.ViChaR)},
		{"damq", goldenConfig(vichar.DAMQ)},
		{"fccb", goldenConfig(vichar.FCCB)},
	}
	cases = append(cases, struct {
		name string
		cfg  vichar.Config
	}{"vichar-faults", goldenFaultyConfig()})

	// One transaction-layer run per architecture, feeding the fixture
	// the Results.Txn latency block too.
	for _, arch := range []struct {
		name string
		arch vichar.BufferArch
	}{
		{"txn-generic", vichar.Generic},
		{"txn-vichar", vichar.ViChaR},
		{"txn-damq", vichar.DAMQ},
		{"txn-fccb", vichar.FCCB},
	} {
		cases = append(cases, struct {
			name string
			cfg  vichar.Config
		}{arch.name, goldenTxnConfig(arch.arch)})
	}

	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			res, err := vichar.Run(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, c.name+".json", append(got, '\n'))
		})
	}
}

// checkGolden compares got byte-for-byte against the named fixture
// under testdata/golden, or rewrites the fixture under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test . -run TestGolden -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output diverged from %s\ngot:\n%s\nwant:\n%s\n(if the change is intended, regenerate with: go test . -run TestGolden -update)",
			path, got, want)
	}
}

// TestGoldenMetricsExposition pins the complete /metrics body — every
// series name, help string, label set, value and their order — at the
// end of one faulted ViChaR run and one transaction-layer generic run.
// The counters behind the body are a result (the power model and the
// per-port VC-usage figures read them), so a series that moves is a
// fixture diff to review, exactly like TestGoldenResults.
func TestGoldenMetricsExposition(t *testing.T) {
	faulty := goldenFaultyConfig()
	faulty.TraceEvents = 4096 // the registry is built for tracing alone too
	for _, c := range []struct {
		name string
		cfg  vichar.Config
	}{
		{"metrics-vichar-faults.prom", faulty},
		{"metrics-generic-txn.prom", goldenTxnConfig(vichar.Generic)},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			c.cfg.Metrics = true
			sim, err := vichar.NewSimulator(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer sim.Close()
			sim.Run()
			rec := httptest.NewRecorder()
			sim.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
			if rec.Code != 200 {
				t.Fatalf("GET / = %d", rec.Code)
			}
			checkGolden(t, c.name, rec.Body.Bytes())
		})
	}
}
