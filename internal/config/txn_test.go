package config

import (
	"strings"
	"testing"
)

func TestParseTxnDisabled(t *testing.T) {
	for _, s := range []string{"", "off", "none", "  OFF ", "N o N e", "\toff\t"} {
		got, err := ParseTxn(s)
		if err != nil {
			t.Fatalf("ParseTxn(%q): %v", s, err)
		}
		if got.Enabled {
			t.Fatalf("ParseTxn(%q) enabled the layer", s)
		}
	}
}

func TestParseTxnFullSpec(t *testing.T) {
	spec := "rate=0.04, Window=16, mix=7/2.5/0.5, posted=0.5, service=12, queue=6, edge=true, reqs=100, shared=false, seed=42"
	got, err := ParseTxn(spec)
	if err != nil {
		t.Fatalf("ParseTxn(%q): %v", spec, err)
	}
	want := TxnConfig{
		Enabled:       true,
		Rate:          0.04,
		Window:        16,
		ReadFrac:      7,
		WriteFrac:     2.5,
		AtomicFrac:    0.5,
		PostedFrac:    0.5,
		ServiceCycles: 12,
		QueueDepth:    6,
		MemEdge:       true,
		Requests:      100,
		SharedVCs:     false,
		Seed:          42,
	}
	if got != want {
		t.Fatalf("ParseTxn(%q) = %+v, want %+v", spec, got, want)
	}
	shared, err := ParseTxn("rate=0.1,shared=true")
	if err != nil || !shared.SharedVCs {
		t.Fatalf("ParseTxn shared=true = %+v, %v", shared, err)
	}
}

func TestParseTxnErrors(t *testing.T) {
	cases := []struct{ spec, want string }{
		{"rate", "not key=value"},
		{"rate=x", "clause"},
		{"rate=0.1,", "not key=value"}, // trailing comma: empty clause
		{"mix=1/2", "not <read>/<write>/<atomic>"},
		{"mix=a/b/c", "bad mix weight"},
		{"window=1.5", "clause"},
		{"edge=maybe", "clause"},
		{"bogus=1", "unknown transaction clause"},
	}
	for _, c := range cases {
		if _, err := ParseTxn(c.spec); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseTxn(%q) = %v, want error containing %q", c.spec, err, c.want)
		}
	}
}

func TestTxnEffectiveDefaults(t *testing.T) {
	var zero TxnConfig
	if got := zero.EffectiveWindow(); got != 8 {
		t.Errorf("default window = %d, want 8", got)
	}
	if got := zero.EffectiveServiceCycles(); got != 8 {
		t.Errorf("default service latency = %d, want 8", got)
	}
	if got := zero.EffectiveQueueDepth(); got != 4 {
		t.Errorf("default queue depth = %d, want 4", got)
	}
	if got := zero.EffectiveSeed(7); got != 7 {
		t.Errorf("default seed = %d, want the run seed 7", got)
	}
	r, w, a := zero.EffectiveMix()
	if r != 1 || w != 0 || a != 0 {
		t.Errorf("zero mix = %g/%g/%g, want pure reads 1/0/0", r, w, a)
	}

	set := TxnConfig{Window: 16, ServiceCycles: 12, QueueDepth: 6, Seed: 42,
		ReadFrac: 2, WriteFrac: 1, AtomicFrac: 1}
	if set.EffectiveWindow() != 16 || set.EffectiveServiceCycles() != 12 || set.EffectiveQueueDepth() != 6 {
		t.Error("explicit window/service/queue values must pass through")
	}
	if got := set.EffectiveSeed(7); got != 42 {
		t.Errorf("explicit seed = %d, want 42", got)
	}
	r, w, a = set.EffectiveMix()
	if r != 0.5 || w != 0.25 || a != 0.25 {
		t.Errorf("mix 2/1/1 normalized to %g/%g/%g, want 0.5/0.25/0.25", r, w, a)
	}
}

func TestVCClasses(t *testing.T) {
	cfg := Default()
	if got := cfg.VCClasses(); got != 1 {
		t.Fatalf("transaction layer off: VCClasses = %d, want 1", got)
	}
	cfg.Txn = TxnConfig{Enabled: true, Rate: 0.1}
	if got := cfg.VCClasses(); got != 2 {
		t.Fatalf("class separation on: VCClasses = %d, want 2", got)
	}
	cfg.Txn.SharedVCs = true
	if got := cfg.VCClasses(); got != 1 {
		t.Fatalf("shared VCs: VCClasses = %d, want 1", got)
	}
}

func TestTxnValidate(t *testing.T) {
	base := func() Config {
		cfg := Default()
		cfg.Txn = TxnConfig{Enabled: true, Rate: 0.1}
		return cfg
	}
	baseline := base()
	if err := baseline.Validate(); err != nil {
		t.Fatalf("baseline transaction config rejected: %v", err)
	}
	disabled := Default()
	disabled.Txn = TxnConfig{Rate: -5} // ignored while Enabled is false
	if err := disabled.Validate(); err != nil {
		t.Fatalf("disabled layer must skip transaction validation: %v", err)
	}

	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"rate-zero", func(c *Config) { c.Txn.Rate = 0 }, "transaction rate"},
		{"rate-above-one", func(c *Config) { c.Txn.Rate = 1.5 }, "transaction rate"},
		{"negative-window", func(c *Config) { c.Txn.Window = -1 }, "window"},
		{"negative-mix", func(c *Config) { c.Txn.ReadFrac = -1 }, "mix weights"},
		{"posted-above-one", func(c *Config) { c.Txn.PostedFrac = 2 }, "posted-write fraction"},
		{"negative-service", func(c *Config) { c.Txn.ServiceCycles = -1 }, "service latency"},
		{"negative-queue", func(c *Config) { c.Txn.QueueDepth = -1 }, "queue depth"},
		{"negative-reqs", func(c *Config) { c.Txn.Requests = -1 }, "request cap"},
		{"edge-needs-width", func(c *Config) {
			c.Width, c.Height = 2, 2
			c.Txn.MemEdge = true
		}, "interior requester columns"},
		{"regular-vc-per-class", func(c *Config) { c.VCs, c.BufferSlots = 1, 4 }, "one regular VC per class"},
		{"escape-vc-per-class", func(c *Config) {
			c.Routing = MinimalAdaptive
			c.EscapeVCs = 1
		}, "escape VC per class"},
		{"vichar-slots", func(c *Config) {
			c.Arch = ViChaR
			c.BufferSlots = 2
		}, "BufferSlots is 2, below the supported minimum 3"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := base()
			c.mut(&cfg)
			if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, c.want)
			}
		})
	}
}
