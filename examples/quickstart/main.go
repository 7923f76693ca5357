// Quickstart: run the same WebSearch traffic under every receiver-driven
// transport of the comparison set on a small leaf-spine fabric and compare
// flow completion times and bottleneck utilization.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"amrt"
)

func main() {
	// Ctrl-C cancels the context; CompareContext then returns the
	// protocols finished so far plus the cancellation error.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	cfg := amrt.Config{
		Workload: "WebSearch",
		Load:     0.6,
		Flows:    800,
		Seed:     7,
		Topology: amrt.Topology{Leaves: 2, Spines: 2, HostsPerLeaf: 8},
	}
	if err := cfg.Validate(); err != nil {
		log.Fatalf("bad config: %v", err)
	}

	fmt.Println("comparing receiver-driven transports on identical traffic")
	fmt.Printf("workload=%s load=%.1f flows=%d hosts=%d\n\n",
		cfg.Workload, cfg.Load, cfg.Flows, 2*8)

	results, err := amrt.CompareContext(ctx, cfg)
	if err != nil {
		log.Fatalf("compare: %v", err)
	}
	fmt.Printf("%-8s %12s %12s %8s %8s\n", "proto", "AFCT", "p99 FCT", "util", "drops")
	for _, r := range results { // already in presentation order: pHost, Homa, NDP, AMRT, SIRD
		fmt.Printf("%-8s %12v %12v %8.3f %8d\n",
			r.Protocol, r.AFCT.Round(time.Microsecond), r.P99.Round(time.Microsecond), r.Utilization, r.Drops)
	}

	// The paper's §5 analytical model: how much faster does AMRT finish
	// a 1 MB flow whose rate was halved, best and worst case?
	uMin, uMax, fMin, fMax := amrt.Gain(1_000_000, 0.5, 1, 100*time.Microsecond)
	fmt.Printf("\nanalytical gain for a 1MB flow at R/C=0.5 (1Gbps, 100µs RTT):\n")
	fmt.Printf("  utilization gain: %.2f–%.2f×   FCT gain: %.2f–%.2f×\n", uMin, uMax, fMin, fMax)
}
