// Multibottleneck reproduces the paper's §2.1 motivation scenario
// (Fig. 1): flow f0 crosses two bottlenecks; when cross traffic squeezes
// it at the second one, a conservative receiver-driven protocol leaves
// the released first-bottleneck bandwidth unused, while AMRT's anti-ECN
// marks let the coexisting flow f1 take it over.
//
//	go run ./examples/multibottleneck
package main

import (
	"fmt"
	"os"

	"amrt/internal/experiment"
)

func main() {
	fmt.Println("§2.1 multi-bottleneck scenario: 4 flows, 2 bottlenecks, 10Gbps")
	fmt.Println("f2 (cross traffic at the 2nd bottleneck) starts at 1ms, f3 at 3.5ms")
	fmt.Println()
	for _, proto := range []string{"pHost", "AMRT"} {
		res := experiment.Fig1(experiment.MustStack(proto, experiment.StackOptions{}), 1)
		res.Phases.Fprint(os.Stdout)
	}
	fmt.Println("pHost cannot reclaim the bandwidth f0 releases at the first")
	fmt.Println("bottleneck; AMRT's marked grants let f1 absorb it.")
}
