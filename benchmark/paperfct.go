package main

import (
	"context"
	"fmt"
	"time"

	"amrt"
	"amrt/internal/experiment"
	"amrt/internal/sim"
	"amrt/internal/topo"
	"amrt/internal/workload"
)

// fctStacks are the paper-fct legs: the five receiver-driven stacks in
// figure order, then the DCTCP contrast.
var fctStacks = []string{"pHost", "Homa", "NDP", "AMRT", "SIRD", "DCTCP"}

// ctrlCounters name the counters of the control packets each stack sends
// to clock its data: grants (including loss-recovery reissues), tokens,
// pulls or ACKs.
var ctrlCounters = map[string][]string{
	"pHost": {"phost.tokens_sent"},
	"Homa":  {"homa.grants_sent", "homa.resend_grants"},
	"NDP":   {"ndp.pulls_sent"},
	"AMRT":  {"amrt.grants_sent", "amrt.recovery_grants"},
	"SIRD":  {"sird.grants_sent", "sird.resend_grants"},
	"DCTCP": {"dctcp.acks_sent"},
}

// paperFCT is the Fig 12/13 shape: Poisson WebSearch flows at load 0.5 on
// the default 40-host leaf-spine, the same flow list run under every
// stack on one engine with no observers.
//
// The input is sized in bytes, not flows: the flow list is the shortest
// prefix of the seeded Poisson arrival sequence that carries targetBytes.
// WebSearch sizes are heavy-tailed, so a fixed flow count would make the
// work of a run depend on how many elephants its seed drew.
type paperFCT struct {
	builder topo.LeafSpineConfig
	flows   []workload.FlowSpec
	bytes   int64
	stacks  []experiment.Stack
}

const fctLoad = 0.5

// fctHorizon is amrt.Config's default simulated horizon.
const fctHorizon = 20 * time.Second

func (w *paperFCT) targetBytes(small bool) int64 {
	if small {
		return 6 << 20
	}
	return 400 << 20
}

func (w *paperFCT) config(b *bench, proto string) amrt.Config {
	return amrt.Config{
		Protocol: proto, Workload: "WebSearch", Load: fctLoad,
		Flows: len(w.flows), Seed: b.cfg.seed, Timeout: fctHorizon,
	}
}

func (w *paperFCT) setup(b *bench) error {
	w.builder = topo.DefaultLeafSpine()
	gs := b.tr.begin("workload.generate", nil, 0)
	target := w.targetBytes(b.cfg.small)
	pool := workload.GeneratePoisson(workload.PoissonConfig{
		Hosts: w.builder.Hosts(), Load: fctLoad, HostRate: w.builder.HostRate,
		Dist: workload.WebSearch(), Count: int(target/(256<<10)) + 64, Seed: b.cfg.seed,
	})
	var total int64
	n := 0
	for n < len(pool) && total < target {
		total += pool[n].Size
		n++
	}
	gs.end()
	if total < target {
		return fmt.Errorf("flow pool of %d flows carries only %d of %d bytes", len(pool), total, target)
	}
	w.flows, w.bytes = pool[:n], total

	vs := b.tr.begin("amrt.validate", nil, 0)
	defer vs.end()
	w.stacks = w.stacks[:0]
	for _, p := range fctStacks {
		if err := w.config(b, p).Validate(); err != nil {
			return err
		}
		st, err := experiment.NewStack(p, experiment.StackOptions{HomaDegree: 2})
		if err != nil {
			return err
		}
		w.stacks = append(w.stacks, st)
	}
	return nil
}

func (w *paperFCT) input() string {
	return fmt.Sprintf("%d WebSearch flows (%d bytes) at load %.1f on a %d-host leaf-spine x %d stacks",
		len(w.flows), w.bytes, fctLoad, w.builder.Hosts(), len(w.stacks))
}

func (w *paperFCT) pass(b *bench, v variant) ([]opResult, error) {
	ops := make([]opResult, 0, len(w.stacks))
	for _, st := range w.stacks {
		ops = append(ops, directRun(v, st.Name, experiment.LeafSpineRun{
			Topo: w.builder, Stack: st, Flows: w.flows, Horizon: sim.FromDuration(fctHorizon),
		}, false))
	}
	return ops, nil
}

func (w *paperFCT) invariants(op opResult) error { return runInvariants(op) }

// checks runs the AMRT leg again through amrt.RunContext, which
// generates its own flows from the seed: the result must equal the
// runner's, which proves the benchmark's inputs are the public API's. It
// runs on every seed, pinned or not.
func (w *paperFCT) checks(b *bench, p pass, _ bool) error {
	const leg = "AMRT"
	res, err := amrt.RunContext(context.Background(), w.config(b, leg))
	if err != nil {
		return fmt.Errorf("amrt.RunContext: %w", err)
	}
	for _, op := range p.ops {
		if op.name == leg && op.run != nil {
			got, want := publicDigest(res), publicDigest(toPublic(*op.run))
			b.check(got == want, "amrt.RunContext %s digest %s differs from the runner's %s", leg, got, want)
			return nil
		}
	}
	b.check(false, "no %s leg in the pass", leg)
	return nil
}

func (w *paperFCT) layers(b *bench, base pass, traced []pass) (map[string]float64, error) {
	out := map[string]float64{"workload.flows": float64(len(w.flows))}
	stackLayers(out, base, traced[0])
	return out, nil
}

// stackLayers fills the stack.<Name>.* metrics of every leg in the pass:
// cost figures from the untraced base pass, ratios from the registry of
// the first traced pass.
func stackLayers(out map[string]float64, base, traced pass) {
	for i, op := range base.ops {
		if op.run == nil || op.events == 0 || i >= len(traced.ops) {
			continue
		}
		pre := "stack." + op.name + "."
		out[pre+"run_s"] = op.wall.Seconds()
		out[pre+"events"] = float64(op.events)
		out[pre+"ns_per_event"] = float64(op.wall.Nanoseconds()) / float64(op.events)
		out[pre+"allocs_per_event"] = float64(op.mallocs) / float64(op.events)
		st := stateOf(traced.ops[i])
		delivered := st.counters["transport.data_bytes_delivered"]
		if delivered > 0 {
			var ctrl int64
			for _, c := range ctrlCounters[op.name] {
				ctrl += st.counters[c]
			}
			out[pre+"ctrl_per_data"] = float64(ctrl) / (float64(delivered) / mssBytes)
		}
		if st.hostTxBytes > 0 {
			out[pre+"goodput_ratio"] = float64(delivered) / float64(st.hostTxBytes)
		}
	}
}
