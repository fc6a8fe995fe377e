package config

import (
	"errors"
	"strings"
	"testing"
)

func TestDefaultIsValid(t *testing.T) {
	cfg := Default()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if cfg.Nodes() != 64 || cfg.Ports() != 5 {
		t.Fatalf("paper platform is 64 nodes x 5 ports, got %d x %d", cfg.Nodes(), cfg.Ports())
	}
	if cfg.BufferSlots != 16 || cfg.VCs*cfg.VCDepth != 16 {
		t.Fatal("paper platform is 16 slots/port as 4 VCs x 4 flits")
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Config)
		keyword string
	}{
		{"tiny mesh", func(c *Config) { c.Width = 1 }, "mesh"},
		{"no vcs", func(c *Config) { c.VCs = 0 }, "VC"},
		{"no slots", func(c *Config) { c.BufferSlots = 0 }, "slot"},
		{"no packet", func(c *Config) { c.PacketSize = 0 }, "packet"},
		{"no width", func(c *Config) { c.FlitWidthBits = 0 }, "flit"},
		{"bad rate", func(c *Config) { c.InjectionRate = 1.5 }, "rate"},
		{"bad measure", func(c *Config) { c.MeasurePackets = 0 }, "measurement"},
		{"bad sample", func(c *Config) { c.SampleEvery = 0 }, "sample"},
		{"generic depth", func(c *Config) { c.VCDepth = 0 }, "depth"},
		{"generic mismatch", func(c *Config) { c.BufferSlots = 12 }, "equal"},
		{"shared starved", func(c *Config) {
			c.Arch = DAMQ
			c.VCs = 8
			c.BufferSlots = 4
		}, "slots"},
		{"adaptive no escape", func(c *Config) {
			c.Routing = MinimalAdaptive
			c.EscapeVCs = 0
		}, "escape"},
		{"adaptive all escape", func(c *Config) {
			c.Routing = MinimalAdaptive
			c.EscapeVCs = 4
		}, "escape"},
		{"adaptive threshold", func(c *Config) {
			c.Routing = MinimalAdaptive
			c.DeadlockThreshold = 0
		}, "threshold"},
		{"damq delay", func(c *Config) {
			c.Arch = DAMQ
			c.DAMQDelay = -1
		}, "delay"},
		{"vichar vclimit", func(c *Config) {
			c.Arch = ViChaR
			c.VCLimit = -2
		}, "limit"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := Default()
			c.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("config accepted: %+v", cfg)
			}
			if !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(c.keyword)) {
				t.Fatalf("error %q does not mention %q", err, c.keyword)
			}
		})
	}
}

func TestMaxVCs(t *testing.T) {
	cfg := Default()
	if cfg.MaxVCs() != 4 {
		t.Fatalf("generic MaxVCs %d", cfg.MaxVCs())
	}
	cfg.Arch = ViChaR
	if cfg.MaxVCs() != 16 {
		t.Fatalf("ViChaR MaxVCs %d, want BufferSlots", cfg.MaxVCs())
	}
	cfg.VCLimit = 6
	if cfg.MaxVCs() != 6 {
		t.Fatalf("capped ViChaR MaxVCs %d", cfg.MaxVCs())
	}
	cfg.VCLimit = 99 // above the pool: ignored
	if cfg.MaxVCs() != 16 {
		t.Fatalf("over-cap MaxVCs %d", cfg.MaxVCs())
	}
	cfg.Arch = DAMQ
	cfg.VCLimit = 0
	if cfg.MaxVCs() != 4 {
		t.Fatalf("DAMQ MaxVCs %d", cfg.MaxVCs())
	}
}

func TestLabels(t *testing.T) {
	cfg := Default()
	if cfg.Label() != "GEN-16" {
		t.Errorf("label %q", cfg.Label())
	}
	cfg.Arch = ViChaR
	cfg.BufferSlots = 8
	if cfg.Label() != "ViC-8" {
		t.Errorf("label %q", cfg.Label())
	}
	if DAMQ.String() != "DAMQ" || FCCB.String() != "FC-CB" {
		t.Error("baseline labels wrong")
	}
	if XY.String() != "XY" || MinimalAdaptive.String() != "MinAdaptive" {
		t.Error("routing labels wrong")
	}
	if UniformRandom.String() != "UR" || SelfSimilar.String() != "SS" {
		t.Error("traffic labels wrong")
	}
	if NormalRandom.String() != "NR" || Tornado.String() != "TN" {
		t.Error("destination labels wrong")
	}
}

func TestUnknownEnumStrings(t *testing.T) {
	if !strings.Contains(BufferArch(9).String(), "9") ||
		!strings.Contains(RoutingAlg(9).String(), "9") ||
		!strings.Contains(TrafficProcess(9).String(), "9") ||
		!strings.Contains(DestPattern(9).String(), "9") {
		t.Error("unknown enum values should print their number")
	}
}

func TestEffectiveMaxCycles(t *testing.T) {
	cfg := Default()
	cfg.MaxCycles = 123
	if cfg.EffectiveMaxCycles() != 123 {
		t.Fatal("explicit cap not honored")
	}
	cfg.MaxCycles = 0
	if cfg.EffectiveMaxCycles() < 100_000 {
		t.Fatal("default cap implausibly small")
	}
	// The default cap scales inversely with injection rate.
	slow := Default()
	slow.InjectionRate = 0.05
	fast := Default()
	fast.InjectionRate = 0.5
	if slow.EffectiveMaxCycles() <= fast.EffectiveMaxCycles() {
		t.Fatal("cap should grow for slower injection")
	}
}

func TestAdaptiveDefaultsValid(t *testing.T) {
	cfg := Default()
	cfg.Routing = MinimalAdaptive
	if err := cfg.Validate(); err != nil {
		t.Fatalf("adaptive defaults invalid: %v", err)
	}
	cfg.Arch = ViChaR
	if err := cfg.Validate(); err != nil {
		t.Fatalf("adaptive ViChaR invalid: %v", err)
	}
}

func TestValidateNewFields(t *testing.T) {
	cfg := Default()
	cfg.PacketSizeMax = 2 // below PacketSize=4
	if cfg.Validate() == nil {
		t.Fatal("bad PacketSizeMax accepted")
	}
	cfg = Default()
	cfg.PacketSizeMax = 8
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid PacketSizeMax rejected: %v", err)
	}
	cfg = Default()
	cfg.HotspotFraction = 1.5
	if cfg.Validate() == nil {
		t.Fatal("bad HotspotFraction accepted")
	}
	cfg = Default()
	cfg.Speculative = true
	if err := cfg.Validate(); err != nil {
		t.Fatalf("speculative config rejected: %v", err)
	}
}

func TestNewDestLabels(t *testing.T) {
	if Transpose.String() != "TP" || BitComplement.String() != "BC" || Hotspot.String() != "HS" {
		t.Error("new destination labels wrong")
	}
}

func TestTextMarshalRoundTrip(t *testing.T) {
	for _, a := range []BufferArch{Generic, ViChaR, DAMQ, FCCB} {
		b, err := a.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var got BufferArch
		if err := got.UnmarshalText(b); err != nil || got != a {
			t.Errorf("arch %v round trip: %v, %v", a, got, err)
		}
	}
	for _, r := range []RoutingAlg{XY, MinimalAdaptive} {
		b, _ := r.MarshalText()
		var got RoutingAlg
		if err := got.UnmarshalText(b); err != nil || got != r {
			t.Errorf("routing %v round trip: %v, %v", r, got, err)
		}
	}
	for _, tr := range []TrafficProcess{UniformRandom, SelfSimilar} {
		b, _ := tr.MarshalText()
		var got TrafficProcess
		if err := got.UnmarshalText(b); err != nil || got != tr {
			t.Errorf("traffic %v round trip: %v, %v", tr, got, err)
		}
	}
	for _, d := range []DestPattern{NormalRandom, Tornado, Transpose, BitComplement, Hotspot} {
		b, _ := d.MarshalText()
		var got DestPattern
		if err := got.UnmarshalText(b); err != nil || got != d {
			t.Errorf("dest %v round trip: %v, %v", d, got, err)
		}
	}
}

func TestUnmarshalTextRejects(t *testing.T) {
	var a BufferArch
	if a.UnmarshalText([]byte("router")) == nil {
		t.Error("bogus arch accepted")
	}
	var r RoutingAlg
	if r.UnmarshalText([]byte("west-first")) == nil {
		t.Error("bogus routing accepted")
	}
	var tr TrafficProcess
	if tr.UnmarshalText([]byte("poisson")) == nil {
		t.Error("bogus traffic accepted")
	}
	var d DestPattern
	if d.UnmarshalText([]byte("shuffle")) == nil {
		t.Error("bogus dest accepted")
	}
}

func TestNormalize(t *testing.T) {
	if normalize(" Fc-Cb\t") != "fc-cb" {
		t.Errorf("normalize wrong: %q", normalize(" Fc-Cb\t"))
	}
}

func TestTorusValidation(t *testing.T) {
	cfg := Default()
	cfg.Torus = true
	cfg.EscapeVCs = 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("torus without escape VCs accepted")
	} else if !strings.Contains(err.Error(), "torus") {
		t.Fatalf("error %q does not mention the torus", err)
	}
	cfg.EscapeVCs = 1
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid torus rejected: %v", err)
	}
	if !cfg.NeedsEscape() {
		t.Fatal("torus does not report needing escape")
	}
	plain := Default()
	if plain.NeedsEscape() {
		t.Fatal("mesh XY reports needing escape")
	}
}

// The transpose pattern is only a permutation of a square mesh;
// Validate must reject rectangles instead of letting some nodes
// receive double traffic and others none.
func TestValidateRejectsRectangularTranspose(t *testing.T) {
	cfg := Default()
	cfg.Dest = Transpose
	cfg.Width, cfg.Height = 8, 4
	if err := cfg.Validate(); err == nil {
		t.Fatal("8x4 transpose validated")
	}
	cfg.Width, cfg.Height = 8, 8
	if err := cfg.Validate(); err != nil {
		t.Fatalf("8x8 transpose rejected: %v", err)
	}
}

// The hotspot fraction's zero value is rejected, not silently turned
// into 0.1; the default resolves in Default().
func TestHotspotFractionZeroValue(t *testing.T) {
	if got := Default().HotspotFraction; got != 0.1 {
		t.Fatalf("Default hotspot fraction = %g, want 0.1", got)
	}
	cfg := Default()
	cfg.Dest = Hotspot
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default hotspot config rejected: %v", err)
	}
	cfg.HotspotFraction = 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("explicit HotspotFraction=0 with hotspot traffic validated")
	}
	// Other patterns don't require the fraction at all.
	cfg.Dest = NormalRandom
	if err := cfg.Validate(); err != nil {
		t.Fatalf("zero fraction without hotspot traffic rejected: %v", err)
	}
}

// The simulator stores slot ids, VC ids and per-VC flit counts in
// 16-bit fields, and the event tracer node ids and flit indices, so
// Validate bounds every count that feeds them and names the offending
// field in a structured error — as it does a ViChaR pool too small for
// one grant reserve per VC kind plus a shared slot.
func TestValidateUpperBounds(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		field  string // "" = accepted
		max    int    // the bound a rejection must report
	}{
		{"mesh at the node bound", func(c *Config) { c.Width, c.Height = 217, 151 }, "", 0},
		{"mesh one column past the node bound", func(c *Config) { c.Width, c.Height = 218, 151 }, "Width*Height", MaxNodes},
		{"mesh one node past the node bound", func(c *Config) { c.Width, c.Height = 2, 1<<14 }, "Width*Height", MaxNodes},
		{"mesh whose node count overflows", func(c *Config) { c.Width, c.Height = 1<<62, 4 }, "Width", MaxNodes},
		{"mesh taller than the node bound", func(c *Config) { c.Width, c.Height = 2, 1<<15 }, "Height", MaxNodes},
		{"packet size at the bound", func(c *Config) { c.PacketSize = MaxPacketSize }, "", 0},
		{"packet size past the bound", func(c *Config) { c.PacketSize = MaxPacketSize + 1 }, "PacketSize", MaxPacketSize},
		{"largest packet size at the bound", func(c *Config) { c.PacketSizeMax = MaxPacketSize }, "", 0},
		{"largest packet size past the bound", func(c *Config) { c.PacketSizeMax = MaxPacketSize + 1 }, "PacketSizeMax", MaxPacketSize},
		{"vichar at the bound", func(c *Config) { c.Arch, c.BufferSlots = ViChaR, MaxBufferSlots }, "", 0},
		{"vichar past the bound", func(c *Config) { c.Arch, c.BufferSlots = ViChaR, MaxBufferSlots+1 }, "BufferSlots", MaxBufferSlots},
		{"vichar escape pool below its reserves", func(c *Config) {
			c.Arch, c.BufferSlots, c.Routing = ViChaR, 2, MinimalAdaptive
		}, "BufferSlots", MaxBufferSlots},
		{"vichar escape pool one slot past its reserves", func(c *Config) {
			c.Arch, c.BufferSlots, c.Routing = ViChaR, 3, MinimalAdaptive
		}, "", 0},
		{"vichar capped dispenser, pool past the bound", func(c *Config) {
			c.Arch, c.BufferSlots, c.VCLimit = ViChaR, 1<<16, 8
		}, "BufferSlots", MaxBufferSlots},
		{"damq pool past the bound", func(c *Config) { c.Arch, c.BufferSlots = DAMQ, 40_000 }, "BufferSlots", MaxBufferSlots},
		{"fccb VCs past the bound", func(c *Config) { c.Arch, c.VCs, c.BufferSlots = FCCB, 1<<15, 1<<15 }, "VCs", MaxBufferSlots},
		{"generic depth past the bound", func(c *Config) { c.VCs, c.VCDepth, c.BufferSlots = 1, 1<<15, 1<<15 }, "BufferSlots", MaxBufferSlots},
		{"generic at the bound", func(c *Config) { c.VCs, c.VCDepth, c.BufferSlots = 1, MaxBufferSlots, MaxBufferSlots }, "", 0},
		{"generic VCs past the bound", func(c *Config) { c.VCs, c.VCDepth, c.BufferSlots = 1<<15, 1, 1<<15 }, "VCs", MaxBufferSlots},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := Default()
			c.mutate(&cfg)
			err := cfg.Validate()
			if c.field == "" {
				if err != nil {
					t.Fatalf("rejected: %v", err)
				}
				if cfg.MaxVCs() > MaxBufferSlots {
					t.Fatalf("accepted with %d VCs per port", cfg.MaxVCs())
				}
				return
			}
			var re *RangeError
			if !errors.As(err, &re) {
				t.Fatalf("got %v, want a *RangeError", err)
			}
			if re.Field != c.field || re.Max != c.max || !strings.Contains(re.Error(), c.field) {
				t.Fatalf("error %+v (%q) does not name field %s with bound %d", re, re, c.field, c.max)
			}
		})
	}
}
