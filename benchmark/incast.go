package main

import (
	"fmt"

	"amrt"
	"amrt/internal/experiment"
	"amrt/internal/faults"
	"amrt/internal/metrics"
	"amrt/internal/sim"
	"amrt/internal/topo"
	"amrt/internal/workload"
)

// incastChaos is the k=8 fat-tree synchronized incast under AMRT and
// SIRD with a fault plan, the auditor and a metrics registry, split
// across one engine shard per CPU: the only workload that runs the
// sharded window loop, faults, audit and metrics.
type incastChaos struct {
	builder topo.FatTreeConfig
	flows   []workload.FlowSpec
	stacks  []experiment.Stack
	degree  int
	// ref is the single-engine pass, kept for the parallel-speedup
	// metric once the reference check has run it.
	ref *pass
}

// incastFaults flaps one edge uplink periodically and adds
// Gilbert–Elliott bursty loss on every switch queue.
const incastFaults = "link=edge0.0->agg0.0,down=1ms,up=2ms,period=4ms;" +
	"burst-loss=tobad:0.003,togood:0.2,bad:0.5"

const (
	incastDegree  = 16
	incastBlock   = 64 << 10
	incastLoad    = 0.6
	incastHorizon = 40 * sim.Millisecond
)

var incastStacks = []string{"AMRT", "SIRD"}

func (w *incastChaos) count(small bool) int {
	if small {
		return 128
	}
	return 2048
}

func (w *incastChaos) setup(b *bench) error {
	w.builder = topo.DefaultFatTree()
	w.builder.K = 8
	if b.cfg.small {
		w.builder.K = 4
	}
	n := w.count(b.cfg.small)
	w.degree = incastDegree
	if w.degree >= w.builder.Hosts() {
		w.degree = w.builder.Hosts() / 2
	}
	gs := b.tr.begin("workload.generate", nil, 0)
	w.flows = workload.GenerateIncast(workload.IncastConfig{
		Hosts: w.builder.Hosts(), Degree: w.degree, Bytes: incastBlock, Load: incastLoad,
		HostRate: w.builder.HostRate, Count: n, Seed: b.cfg.seed,
	})
	gs.end()

	vs := b.tr.begin("amrt.validate", nil, 0)
	defer vs.end()
	w.stacks = w.stacks[:0]
	for _, p := range incastStacks {
		cfg := amrt.Config{
			Protocol: p, Pattern: "incast", Topology: amrt.Topology{Kind: "fattree", K: w.builder.K},
			IncastDegree: w.degree, IncastBytes: incastBlock, Load: incastLoad, Flows: n,
			Seed: b.cfg.seed, Faults: incastFaults, Shards: b.par, Audit: true,
		}
		if err := cfg.Validate(); err != nil {
			return err
		}
		st, err := experiment.NewStack(p, experiment.StackOptions{})
		if err != nil {
			return err
		}
		w.stacks = append(w.stacks, st)
	}
	return nil
}

func (w *incastChaos) input() string {
	return fmt.Sprintf("%d incast flows of %d bytes (degree %d) on a k=%d fat-tree (%d hosts) x %d stacks, faults %q",
		len(w.flows), incastBlock, w.degree, w.builder.K, w.builder.Hosts(), len(w.stacks), incastFaults)
}

func (w *incastChaos) pass(b *bench, v variant) ([]opResult, error) {
	shards := b.par
	if v.shards > 0 {
		shards = v.shards
	}
	ops := make([]opResult, 0, len(w.stacks))
	for _, st := range w.stacks {
		ps := v.tr.begin("faults.parse", nil, 0)
		plan, err := faults.Parse(incastFaults)
		ps.end()
		if err != nil {
			return nil, err
		}
		plan.Seed = b.cfg.seed
		r := experiment.LeafSpineRun{
			Topo: w.builder, Stack: st, Flows: w.flows, Horizon: incastHorizon,
			Shards: shards, Faults: plan, Audit: !v.noAudit,
		}
		if !v.noMetrics {
			r.Metrics = metrics.NewRegistry()
		}
		ops = append(ops, directRun(v, st.Name, r, true))
	}
	return ops, nil
}

func (w *incastChaos) invariants(op opResult) error {
	if err := runInvariants(op); err != nil {
		return err
	}
	if op.run.AuditChecks == 0 {
		return fmt.Errorf("the auditor never ran")
	}
	return nil
}

// checks, on an unpinned seed, runs the pass on a single engine: at every
// shard count the results and the merged metrics dump must be
// byte-identical to it. A pinned seed's pin is the single-engine result.
func (w *incastChaos) checks(b *bench, p pass, pinned bool) error {
	if pinned {
		return nil
	}
	ref, err := w.singleEngine(b)
	if err != nil {
		return err
	}
	for i, op := range p.ops {
		b.check(i < len(ref.ops) && ref.ops[i].digest == op.digest,
			"%s at %d shards differs from the single engine", op.name, b.par)
	}
	return nil
}

func (w *incastChaos) singleEngine(b *bench) (*pass, error) {
	if w.ref == nil {
		p, err := b.timedPass(w, variant{shards: 1})
		if err != nil {
			return nil, err
		}
		w.ref = &p
	}
	return w.ref, nil
}

// layers measures what the layers cost by switching each off in turn:
// one shard instead of b.par, no auditor, no registry. Each variant must
// leave the simulated results unchanged.
func (w *incastChaos) layers(b *bench, base pass, traced []pass) (map[string]float64, error) {
	out := map[string]float64{"workload.flows": float64(len(w.flows))}
	ref, err := w.singleEngine(b)
	if err != nil {
		return nil, err
	}
	speedup := ref.wall.Seconds() / base.wall.Seconds()
	out["parallel.speedup"] = speedup
	out["parallel.efficiency"] = speedup / float64(b.par)

	noAudit, err := b.timedPass(w, variant{noAudit: true})
	if err != nil {
		return nil, err
	}
	noMetrics, err := b.timedPass(w, variant{noMetrics: true})
	if err != nil {
		return nil, err
	}
	for i, op := range base.ops {
		b.check(noAudit.ops[i].digest == op.digest, "%s: detaching the auditor changed the results", op.name)
		b.check(stateOf(noMetrics.ops[i]).simDigest == stateOf(op).simDigest,
			"%s: detaching the registry changed the results", op.name)
	}
	out["audit.overhead_frac"] = base.wall.Seconds()/noAudit.wall.Seconds() - 1
	out["metrics.overhead_frac"] = base.wall.Seconds()/noMetrics.wall.Seconds() - 1

	var checks, dumpBytes, faultEvents float64
	for _, op := range base.ops {
		if op.run != nil {
			checks += float64(op.run.AuditChecks)
		}
		dumpBytes += float64(stateOf(op).dumpBytes)
	}
	for _, op := range traced[0].ops {
		for _, c := range []string{"link_down_events", "link_up_events", "degrade_events",
			"crash_events", "reboot_events", "rehash_events"} {
			faultEvents += float64(stateOf(op).counters["faults."+c])
		}
	}
	out["audit.checks"] = checks
	out["metrics.dump_bytes"] = dumpBytes / float64(len(base.ops))
	out["faults.events"] = faultEvents
	stackLayers(out, base, traced[0])
	return out, nil
}
