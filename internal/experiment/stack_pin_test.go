package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"amrt/internal/faults"
	"amrt/internal/metrics"
	"amrt/internal/netsim"
	"amrt/internal/sim"
	"amrt/internal/topo"
	"amrt/internal/transport"
	"amrt/internal/workload"
)

// stackPins are absolute per-stack digests of pinRun. Every other golden
// in this package is relative (wheel vs heap, one shard vs many), so a
// change that shifts all configurations alike passes them; these pin the
// actual trajectories. They were recorded once and must never be edited
// to make a change pass — a refactor that moves any of them is not a
// pure refactor. A deliberate behaviour change bumps SimVersion and
// re-records them in the same commit.
var stackPins = map[string]string{
	"pHost/none": "7e27493f5d38caa5454bfb476d771759",
	"pHost/src":  "a41821ea2ab6443257e67a538d9278e3",
	"pHost/dst":  "3816b1f0e87efe8d5db086529e25c55e",
	"Homa/none":  "1d178083423af1e8d352abef6d95c207",
	"Homa/src":   "c1cac0b4788b7107bee194a0219cfd12",
	"Homa/dst":   "c7ce542a3b1e1ac848cbf2ce852b44c9",
	"NDP/none":   "7d2cf3cc0b77058f0c412a57a575e868",
	"NDP/src":    "69c5ede451352b0d8fb753ed45502324",
	"NDP/dst":    "a7a73c6e3693dc1e0c3e04a38c79060a",
	"AMRT/none":  "6ede2841bbf0becbb5ced96a44c509f9",
	"AMRT/src":   "4d17f7f0b438731fd1ed718e21f964ed",
	"AMRT/dst":   "9709ff59b664da8551fd38eee3177cad",
	"SIRD/none":  "69639addd1984f5f1d3f4f784d26e18b",
	"SIRD/src":   "266facabedcf8d607e8fbb56da6ee091",
	"SIRD/dst":   "946232950fcd9fcdc0966fc87b17b9c7",
	"DCTCP/none": "af131467b6cf2f039a067dbf22596479",
	"DCTCP/src":  "d03312ddea7ff5f6464112b2a245fdf7",
	"DCTCP/dst":  "6152ec0e1953ed71905ea9533d2042b6",
}

// pinRun runs a short single-engine leaf-spine Poisson workload under
// stack with the auditor on, optionally crashing the source ("src") or
// destination ("dst") host of the largest flow 200µs into its transfer
// for 2ms, and digests every flow's Done/End/Outcome, the event count,
// and the metrics dump. Other flows of the crashed host start inside the
// outage, so the crash-before-start paths run too.
func pinRun(t *testing.T, stack, crash string) string {
	t.Helper()
	cfg := topo.DefaultLeafSpine()
	cfg.Leaves, cfg.Spines, cfg.HostsPerLeaf = 2, 2, 4
	flows := workload.GeneratePoisson(workload.PoissonConfig{
		Hosts:    cfg.Hosts(),
		Load:     0.6,
		HostRate: cfg.HostRate,
		Dist:     workload.WebSearch(),
		Count:    40,
		Seed:     5,
	})
	var plan *faults.Plan
	if crash != "none" {
		big := flows[0]
		for _, f := range flows {
			if f.Size > big.Size {
				big = f
			}
		}
		h := big.Src
		if crash == "dst" {
			h = big.Dst
		}
		at := big.Start + 200*sim.Microsecond
		plan = faults.MustParse(fmt.Sprintf("crash=h%d.%d,at=%dns,up=%dns",
			h/cfg.HostsPerLeaf, h%cfg.HostsPerLeaf, int64(at), int64(at+2*sim.Millisecond)))
		plan.Seed = 5
	}
	st := MustStack(stack, StackOptions{})
	var inst Instance
	newInst := st.New
	st.New = func(net *netsim.Network, base transport.Config) Instance {
		inst = newInst(net, base)
		return inst
	}
	reg := metrics.NewRegistry()
	res := LeafSpineRun{
		Topo:    cfg,
		Stack:   st,
		Flows:   flows,
		Horizon: 100 * sim.Millisecond,
		Metrics: reg,
		Faults:  plan,
		Audit:   true,
	}.Run()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "events=%d\n", res.Events)
	for _, f := range inst.OrderedFlows() {
		fmt.Fprintf(&buf, "flow %d done=%v end=%d outcome=%v\n", f.ID, f.Done, int64(f.End), f.Outcome)
	}
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:16])
}

// TestStackPins checks every registered stack against its recorded
// absolute digest, fault-free and under a source and a destination
// host crash.
func TestStackPins(t *testing.T) {
	for _, stack := range StackNames() {
		for _, crash := range []string{"none", "src", "dst"} {
			key := stack + "/" + crash
			want, ok := stackPins[key]
			if !ok {
				t.Errorf("%s: no recorded pin", key)
				continue
			}
			if got := pinRun(t, stack, crash); got != want {
				t.Errorf("%s: digest %s, pinned %s", key, got, want)
			}
		}
	}
}
