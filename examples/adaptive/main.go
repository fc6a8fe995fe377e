// Adaptive routing: run minimal adaptive routing — which can deadlock
// without help — under adversarial Tornado traffic and verify that
// the escape virtual channels (ViChaR: escape tokens with
// deterministic XY draining) keep every packet moving. Reproduces the
// setting of paper Figure 12(i).
//
//	go run ./examples/adaptive
package main

import (
	"fmt"
	"log"

	"vichar"
)

func main() {
	fmt.Println("Minimal adaptive routing with escape-VC deadlock recovery")
	fmt.Println("(Tornado destinations force sustained cross-network contention)")
	fmt.Println()
	fmt.Println("rate    GEN-16 latency   ViC-16 latency")

	for _, rate := range []float64{0.10, 0.20, 0.30, 0.35} {
		var lat [2]float64
		for i, arch := range []vichar.BufferArch{vichar.Generic, vichar.ViChaR} {
			cfg := vichar.DefaultConfig()
			cfg.Arch = arch
			cfg.Routing = vichar.MinimalAdaptive
			cfg.EscapeVCs = 1
			cfg.DeadlockThreshold = 64
			cfg.Dest = vichar.Tornado
			cfg.InjectionRate = rate
			cfg.WarmupPackets = 3_000
			cfg.MeasurePackets = 10_000
			cfg.Seed = 7

			// A deadlock the recovery failed to break is a *WedgeError.
			res, err := vichar.Run(cfg)
			if err != nil {
				log.Fatal(err)
			}
			lat[i] = res.AvgLatency
		}
		fmt.Printf("%.2f    %10.1f       %10.1f\n", rate, lat[0], lat[1])
	}

	fmt.Println("\nEvery run drains to completion: packets that wait past the")
	fmt.Println("deadlock threshold are re-channelled onto an escape VC and")
	fmt.Println("routed deterministically (XY) the rest of the way.")
}
