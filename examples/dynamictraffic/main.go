// Dynamictraffic reproduces the paper's §2.2 motivation scenario
// (Fig. 2): four flows with distinct receivers share one bottleneck and
// finish at different times. A conservative receiver-driven protocol's
// utilization staircases down as flows leave; AMRT keeps the link busy
// and finishes everything sooner.
//
//	go run ./examples/dynamictraffic
package main

import (
	"fmt"
	"os"

	"amrt/internal/experiment"
)

func main() {
	fmt.Println("§2.2 dynamic traffic: 4 flows (625KB..2.5MB), one 10G bottleneck")
	fmt.Println()
	for _, proto := range experiment.ProtocolNames() {
		res := experiment.Fig2(experiment.MustStack(proto, experiment.StackOptions{}), 1)
		res.Phases.Fprint(os.Stdout)
	}
}
