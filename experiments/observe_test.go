package experiments

import (
	"fmt"
	"strings"
	"testing"

	"vichar"
)

func TestObserveReconciles(t *testing.T) {
	cfg := vichar.DefaultConfig()
	cfg.Arch = vichar.ViChaR
	cfg.Width, cfg.Height = 4, 4
	cfg.InjectionRate = 0.25
	obs, err := Observe(cfg, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(obs.Events) == 0 {
		t.Fatal("instrumented run retained no flit events")
	}
	// The report renders the view's whole-run totals, which agree with
	// Results wherever Results is whole-run too.
	rep := obs.Report()
	for _, want := range []string{
		"registry totals",
		fmt.Sprintf("  %-34s %12d\n", "vichar_packets_ejected_total", obs.Results.EjectedPackets),
		fmt.Sprintf("  %-34s %12d\n", "vichar_buffer_writes_total", obs.Snapshot.Sum("vichar_buffer_writes_total")),
		"busiest links",
		fmt.Sprintf("flit events retained: %d\n", len(obs.Events)),
	} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	if w := obs.Snapshot.Sum("vichar_buffer_writes_total"); w == 0 || w < obs.Results.Counters.BufferWrites {
		t.Errorf("whole-run buffer writes %d do not cover the measurement window's %d", w, obs.Results.Counters.BufferWrites)
	}
}
