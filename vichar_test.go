package vichar_test

import (
	"errors"
	"strings"
	"testing"

	"vichar"
)

func quickCfg() vichar.Config {
	cfg := vichar.DefaultConfig()
	cfg.Width, cfg.Height = 4, 4
	cfg.InjectionRate = 0.15
	cfg.WarmupPackets = 200
	cfg.MeasurePackets = 600
	cfg.Seed = 21
	return cfg
}

func TestRunEndToEnd(t *testing.T) {
	cfg := quickCfg()
	res, err := vichar.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeasuredPackets != 600 {
		t.Fatalf("measured %d packets", res.MeasuredPackets)
	}
	if res.AvgLatency <= 0 || res.Throughput <= 0 {
		t.Fatalf("empty metrics: %+v", res)
	}
	if res.AvgPowerWatts <= 0 {
		t.Fatal("results not power-annotated")
	}
	if res.Label != "GEN-16" {
		t.Fatalf("label %q", res.Label)
	}
}

func TestRunValidatesConfig(t *testing.T) {
	cfg := quickCfg()
	cfg.InjectionRate = 2.0
	_, err := vichar.Run(cfg)
	if err == nil {
		t.Fatal("invalid config accepted")
	}
	if !strings.Contains(err.Error(), "vichar:") {
		t.Fatalf("error %q not package-prefixed", err)
	}
	if _, err := vichar.NewSimulator(cfg); err == nil {
		t.Fatal("NewSimulator accepted invalid config")
	}
}

// TestRunReportsWedge: a protocol deadlock (both transaction classes on
// one VC partition) surfaces as a *WedgeError from every run entry
// point, with the results so far marked Saturated, long before the
// cycle cap.
func TestRunReportsWedge(t *testing.T) {
	cfg := vichar.DefaultConfig()
	cfg.Width, cfg.Height = 4, 4
	cfg.VCs, cfg.BufferSlots = 2, 8
	cfg.InjectionRate = 0
	cfg.Seed = 61
	cfg.Txn = vichar.Txn{Enabled: true, Rate: 0.5, Window: 16, ReadFrac: 1, ServiceCycles: 4,
		QueueDepth: 2, MemEdge: true, Requests: 30, SharedVCs: true}
	check := func(how string, res vichar.Results, err error) {
		t.Helper()
		var w *vichar.WedgeError
		if !errors.As(err, &w) || !res.Saturated || res.TotalCycles != w.Cycle || w.Cycle > 2_000 {
			t.Fatalf("%s: results saturated=%v after %d cycles, error %v; want a *WedgeError within 2 000 cycles", how, res.Saturated, res.TotalCycles, err)
		}
	}
	res, err := vichar.Run(cfg)
	check("Run", res, err)

	s, err := vichar.NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res = s.Run()
	check("Simulator.Run then CheckProgress", res, s.CheckProgress())

	s2, err := vichar.NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	res, err = s2.RunCheckpointed(100, func(int64, []byte) error { return nil })
	check("RunCheckpointed", res, err)
}

func TestSimulatorManualControl(t *testing.T) {
	cfg := quickCfg()
	cfg.InjectionRate = 0
	cfg.WarmupPackets = 0
	cfg.MeasurePackets = 1
	s, err := vichar.NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Now() != 0 {
		t.Fatal("fresh simulator not at cycle 0")
	}
	p := s.Inject(0, 15)
	if p == nil || p.Src != 0 || p.Dst != 15 {
		t.Fatalf("inject returned %+v", p)
	}
	s.Step()
	if s.Now() != 1 {
		t.Fatal("step did not advance")
	}
	if left := s.Drain(10_000); left != 0 {
		t.Fatalf("%d packets stuck", left)
	}
	if p.EjectedAt == 0 {
		t.Fatal("packet not stamped")
	}
	if got := s.Config().Width; got != 4 {
		t.Fatalf("config accessor wrong: %d", got)
	}
}

func TestCoordinateHelpers(t *testing.T) {
	cfg := vichar.DefaultConfig()
	n := vichar.NodeAt(cfg, 3, 2)
	x, y := vichar.CoordsOf(cfg, n)
	if x != 3 || y != 2 {
		t.Fatalf("round trip (3,2) -> %d -> (%d,%d)", n, x, y)
	}
}

func TestTable1API(t *testing.T) {
	vic, gen, areaDelta, powerDelta := vichar.Table1()
	if len(vic) != 5 || len(gen) != 5 {
		t.Fatalf("table shape %d/%d rows", len(vic), len(gen))
	}
	if areaDelta >= 0 {
		t.Fatal("ViChaR should save port area")
	}
	if powerDelta <= 0 {
		t.Fatal("ViChaR should cost slightly more port power")
	}
}

func TestSynthesizeAPI(t *testing.T) {
	cfg := vichar.DefaultConfig()
	b := vichar.Synthesize(cfg)
	if b.RouterArea() <= 0 || b.RouterPower() <= 0 {
		t.Fatal("synthesis estimate empty")
	}
	if vichar.StaticPowerWatts(cfg) <= 0 {
		t.Fatal("static power missing")
	}
}

func TestArchitectureConstantsDistinct(t *testing.T) {
	archs := map[vichar.BufferArch]bool{
		vichar.Generic: true, vichar.ViChaR: true, vichar.DAMQ: true, vichar.FCCB: true,
	}
	if len(archs) != 4 {
		t.Fatal("architecture constants collide")
	}
}

// TestSimulatorCloseIdempotent locks the Close contract at the public
// API level: Close may be called any number of times, interleaved
// with Step, on a parallel simulator, without panicking or leaking
// the kernel's helper goroutines.
func TestSimulatorCloseIdempotent(t *testing.T) {
	cfg := quickCfg()
	cfg.Workers = 4
	sim, err := vichar.NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		sim.Step()
	}
	sim.Close()
	sim.Close() // second Close must be a no-op
	// The simulator stays usable serially after Close.
	before := sim.Now()
	sim.Step()
	if sim.Now() != before+1 {
		t.Fatalf("step after Close did not advance the clock (%d -> %d)", before, sim.Now())
	}
	sim.Close()
}
