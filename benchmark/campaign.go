package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"amrt"
	"amrt/internal/experiment"
	"amrt/internal/sim"
	"amrt/internal/topo"
	"amrt/internal/workload"
)

// fabricCampaign is an amrt.Sweep over a k=16 fat-tree (1024 hosts) with
// the closed-loop rpc pattern at light load, cold into a fresh cache
// directory and then resumed from it. Fabric build and route install
// dominate each cell, so it is the workload that set-up-side changes
// (topology, routing, per-host stack state) and the campaign worker pool
// move, and that per-packet changes barely touch.
type fabricCampaign struct {
	sc    amrt.SweepConfig
	k     int
	cells int
}

const (
	campaignLoad     = 0.05
	campaignDeadline = 2 * time.Millisecond
	campaignRequest  = 1 << 10
	campaignResponse = 64 << 10
)

var campaignStacks = []string{"AMRT", "SIRD"}

// campaignSeeds derives the sweep's seed axis from the benchmark seed.
func campaignSeeds(seed int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = seed*1000 + int64(i)
	}
	return out
}

func (w *fabricCampaign) setup(b *bench) error {
	k, seeds, flows := 16, 3, 300
	if b.cfg.small {
		k, seeds, flows = 4, 2, 40
	}
	w.k = k
	w.sc = amrt.SweepConfig{
		Protocols: campaignStacks,
		Seeds:     campaignSeeds(b.cfg.seed, seeds),
		Base: amrt.Config{
			Pattern: "rpc", Topology: amrt.Topology{Kind: "fattree", K: w.k},
			Load: campaignLoad, Flows: flows,
			RPCRequestBytes: campaignRequest, RPCResponseBytes: campaignResponse,
			RPCDeadline: campaignDeadline,
		},
		Workers:  b.par,
		CacheDir: filepath.Join(b.scratch, "cache"),
	}
	w.cells = len(campaignStacks) * seeds

	vs := b.tr.begin("amrt.validate", nil, 0)
	err := w.sc.Validate()
	vs.end()
	if err != nil {
		return err
	}
	return w.prepareCache(b.tr)
}

// prepareCache empties the cache directory so the next sweep is cold.
func (w *fabricCampaign) prepareCache(tr *tracer) error {
	s := tr.begin("campaign.prepare", nil, 0)
	defer s.end()
	if err := os.RemoveAll(w.sc.CacheDir); err != nil {
		return err
	}
	return os.MkdirAll(w.sc.CacheDir, 0o755)
}

func (w *fabricCampaign) input() string {
	return fmt.Sprintf("%d cells (%v x %d seeds) of %d RPCs (%d B request, %d B response, %v deadline) at load %.2f on a k=%d fat-tree (%d hosts), %d workers",
		w.cells, campaignStacks, len(w.sc.Seeds), w.sc.Base.Flows, campaignRequest, campaignResponse,
		campaignDeadline, campaignLoad, w.k, w.k*w.k*w.k/4, w.sc.Workers)
}

// sweepOp is the per-call state of a sweep operation.
type sweepOp struct {
	json       []byte
	hits, miss int
	err        error
}

// pass runs the cold sweep and then the resume pass on the same cache
// directory. The first pass finds the directory set-up left empty; later
// passes empty it again.
func (w *fabricCampaign) pass(b *bench, v variant) ([]opResult, error) {
	if entries, err := os.ReadDir(w.sc.CacheDir); err != nil || len(entries) > 0 {
		if err := w.prepareCache(v.tr); err != nil {
			return nil, err
		}
	}
	return []opResult{w.sweep(v, "campaign.sweep"), w.sweep(v, "campaign.resume")}, nil
}

func (w *fabricCampaign) sweep(v variant, name string) opResult {
	s := v.tr.begin(name, nil, v.tr.newCall())
	t0 := time.Now()
	res, err := amrt.Sweep(context.Background(), w.sc)
	wall := time.Since(t0)
	s.end()
	st := &sweepOp{err: err}
	op := opResult{name: name, wall: wall, sweep: res, extra: st, digest: "error"}
	if res == nil {
		return op
	}
	st.hits, st.miss = res.CacheHits, res.CacheMisses
	var buf bytes.Buffer
	if werr := res.WriteJSON(&buf); werr != nil && st.err == nil {
		st.err = werr
	}
	st.json = buf.Bytes()
	op.digest = digestOf(buf.String())
	return op
}

func (w *fabricCampaign) invariants(op opResult) error {
	st, _ := op.extra.(*sweepOp)
	if st == nil || op.sweep == nil {
		return fmt.Errorf("no sweep result")
	}
	if st.err != nil {
		return st.err
	}
	res := op.sweep
	if len(res.Failed) != 0 || len(res.Points) != w.cells {
		return fmt.Errorf("%d of %d cells ran, %d failed", len(res.Points), w.cells, len(res.Failed))
	}
	for _, p := range res.Points {
		r := p.Result
		if r.Completed != r.Total || r.Stalled != 0 || r.Killed != 0 {
			return fmt.Errorf("%s seed %d: %d/%d completed, stalled=%d killed=%d",
				p.Protocol, p.Seed, r.Completed, r.Total, r.Stalled, r.Killed)
		}
	}
	if op.name == "campaign.resume" && (st.hits != w.cells || st.miss != 0) {
		return fmt.Errorf("resume pass: %d hits, %d misses of %d cells", st.hits, st.miss, w.cells)
	}
	if op.name == "campaign.sweep" && st.miss != w.cells {
		return fmt.Errorf("cold sweep: %d misses of %d cells", st.miss, w.cells)
	}
	return nil
}

// checks requires the resumed report to be byte-identical to the cold
// one, on every seed. The traced run also re-runs every cell through the
// runner (see layers).
func (w *fabricCampaign) checks(b *bench, p pass, _ bool) error {
	cold, resumed := p.ops[0].extra.(*sweepOp), p.ops[1].extra.(*sweepOp)
	b.check(bytes.Equal(cold.json, resumed.json), "resume report differs from the cold report")
	return nil
}

// layers re-runs every cell through experiment.LeafSpineRun with the
// wrapped builder and stack, which attributes each cell's time to the
// fabric build, the stack constructors and the simulation, and checks
// each result equals the sweep's. The cells run without a registry, as
// the sweep does, so their run times are comparable with its wall time.
func (w *fabricCampaign) layers(b *bench, base pass, traced []pass) (map[string]float64, error) {
	out := map[string]float64{}
	cold, resume := base.ops[0], base.ops[1]
	out["campaign.cells"] = float64(w.cells)
	out["campaign.misses"] = float64(cold.extra.(*sweepOp).miss)
	out["campaign.hits"] = float64(resume.extra.(*sweepOp).hits)
	out["campaign.resume_us_per_cell"] = float64(resume.wall.Microseconds()) / float64(w.cells)

	var sequential time.Duration
	var flows int
	var cells []opResult
	for _, p := range cold.sweep.Points {
		ft := fatTree(w.k)
		gs := b.tr.begin("workload.generate", nil, 0)
		specs := workload.GenerateRPC(workload.RPCConfig{
			Hosts: ft.Hosts(), Load: campaignLoad, HostRate: ft.HostRate,
			RequestBytes: campaignRequest, ResponseBytes: campaignResponse,
			Deadline: sim.FromDuration(campaignDeadline), Count: w.sc.Base.Flows, Seed: p.Seed,
		})
		gs.end()
		flows = len(specs)
		st, err := experiment.NewStack(p.Protocol, experiment.StackOptions{HomaDegree: 2})
		if err != nil {
			return nil, err
		}
		op := directRun(variant{tr: b.tr}, p.Protocol, experiment.LeafSpineRun{
			Topo: ft, Stack: st, Flows: specs, Horizon: sim.FromDuration(20 * time.Second),
		}, false)
		sequential += op.wall
		b.check(op.run != nil && publicDigest(toPublic(*op.run)) == publicDigest(p.Result),
			"%s seed %d: the runner's result differs from the sweep's", p.Protocol, p.Seed)
		cells = append(cells, op)
	}
	out["workload.flows"] = float64(flows)
	var events uint64
	for _, op := range cells {
		events += op.events
	}
	out["sim.events"] = float64(events)
	if events > 0 {
		out["sim.ns_per_event"] = float64(sequential.Nanoseconds()) / float64(events)
	}
	out["campaign.pool_efficiency"] = sequential.Seconds() / (float64(w.sc.Workers) * cold.wall.Seconds())
	return out, nil
}

// fatTree is the fabric amrt.Topology{Kind: "fattree", K: k} resolves to.
func fatTree(k int) topo.FatTreeConfig {
	ft := topo.DefaultFatTree()
	ft.K = k
	return ft
}
