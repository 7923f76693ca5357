package amrt

// One benchmark per figure of the paper: each regenerates the figure's
// experiment at a reduced default scale and reports the headline numbers
// as custom metrics (milliseconds of AFCT, utilization fractions), so
// `go test -bench=.` doubles as a quick reproduction pass. cmd/figures
// runs the same experiments at full size with tables.

import (
	"fmt"
	"testing"

	"amrt/internal/benchcases"
	"amrt/internal/experiment"
	"amrt/internal/metrics"
	"amrt/internal/model"
	"amrt/internal/netsim"
	"amrt/internal/sim"
	"amrt/internal/workload"
)

func benchStack(name string) experiment.Stack {
	return experiment.MustStack(name, experiment.StackOptions{})
}

// BenchmarkFig01MultiBottleneck reproduces §2.1 / Fig. 1 (pHost cannot
// reclaim first-bottleneck bandwidth) and the AMRT counterpart. The
// body lives in internal/benchcases, shared with cmd/bench.
func BenchmarkFig01MultiBottleneck(b *testing.B) {
	for _, proto := range []string{"pHost", "AMRT"} {
		b.Run(proto, benchcases.Fig01(proto))
	}
}

// BenchmarkFig02DynamicTraffic reproduces §2.2 / Fig. 2.
func BenchmarkFig02DynamicTraffic(b *testing.B) {
	for _, proto := range []string{"pHost", "AMRT"} {
		b.Run(proto, benchcases.Fig02(proto))
	}
}

// BenchmarkFig05Convergence measures AMRT's vacancy-fill time against
// the Eq. 4–5 bounds.
func BenchmarkFig05Convergence(b *testing.B) {
	var rtts float64
	for i := 0; i < b.N; i++ {
		rows := experiment.Fig5([][2]int{{10, 4}})
		rtts = rows[0].SimulatedRTTs
	}
	b.ReportMetric(rtts, "fill_rtts")
}

// BenchmarkFig07ModelGain evaluates the §5 analytical curves.
func BenchmarkFig07ModelGain(b *testing.B) {
	ratios := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	var g float64
	for i := 0; i < b.N; i++ {
		curve := model.UtilizationGainCurve(sim.Gbps, 100*sim.Microsecond, netsim.MSS, 1_000_000, ratios)
		g = curve[2].MaxGain
	}
	b.ReportMetric(g, "gain_R/C=0.5")
}

// BenchmarkFig09TestbedDynamic reproduces the §7 dynamic-traffic
// testbed run at 1 GbE.
func BenchmarkFig09TestbedDynamic(b *testing.B) {
	benchcases.Fig09(b)
}

// BenchmarkFig11TestbedMultiBottleneck reproduces the §7 multi-
// bottleneck testbed comparison for each protocol.
func BenchmarkFig11TestbedMultiBottleneck(b *testing.B) {
	for _, proto := range []string{"pHost", "Homa", "NDP", "AMRT"} {
		b.Run(proto, benchcases.Fig11(proto))
	}
}

// fig12BenchConfig is a reduced Fig. 12 cell: one workload, one load.
func fig12BenchConfig() experiment.SimConfig {
	cfg := experiment.DefaultSimConfig()
	cfg.Topo.Leaves, cfg.Topo.Spines, cfg.Topo.HostsPerLeaf = 2, 2, 8
	cfg.FlowsPerRun = 200
	cfg.BytesBudget = 1 << 29
	return cfg
}

// BenchmarkFig12FCT reproduces one (workload, load) cell of Fig. 12 per
// protocol and reports AFCT and p99.
func BenchmarkFig12FCT(b *testing.B) {
	cfg := fig12BenchConfig()
	for _, wl := range []string{"WebSearch", "DataMining"} {
		for _, proto := range []string{"pHost", "Homa", "NDP", "AMRT"} {
			b.Run(fmt.Sprintf("%s/%s", workload.Abbrev(wl), proto), func(b *testing.B) {
				w := workload.ByName(wl)
				st := benchStack(proto)
				var afct, p99 float64
				for i := 0; i < b.N; i++ {
					flows := workload.GeneratePoisson(workload.PoissonConfig{
						Hosts: cfg.Topo.Hosts(), Load: 0.5, HostRate: cfg.Topo.HostRate,
						Dist: w, Count: benchFlowCount(cfg, w.Mean()), Seed: 1,
					})
					res := experiment.LeafSpineRun{Topo: cfg.Topo, Stack: st, Flows: flows, Horizon: cfg.Horizon}.Run()
					afct = res.AFCT.Milliseconds()
					p99 = res.P99.Milliseconds()
				}
				b.ReportMetric(afct, "afct_ms")
				b.ReportMetric(p99, "p99_ms")
			})
		}
	}
}

// benchFlowCount applies the byte budget to the configured flow count.
func benchFlowCount(cfg experiment.SimConfig, mean float64) int {
	n := cfg.FlowsPerRun
	if cfg.BytesBudget > 0 {
		if m := int(float64(cfg.BytesBudget) / mean); m < n {
			n = m
		}
	}
	if n < 50 {
		n = 50
	}
	return n
}

// BenchmarkFig13Utilization reproduces one flow-count point of Fig. 13
// per protocol.
func BenchmarkFig13Utilization(b *testing.B) {
	cfg := fig12BenchConfig()
	for _, proto := range []string{"pHost", "Homa", "NDP", "AMRT"} {
		b.Run(proto, func(b *testing.B) {
			w := workload.WebSearch()
			st := benchStack(proto)
			var util float64
			for i := 0; i < b.N; i++ {
				flows := workload.GeneratePoisson(workload.PoissonConfig{
					Hosts: cfg.Topo.Hosts(), Load: experiment.Fig13Load, HostRate: cfg.Topo.HostRate,
					Dist: w, Count: 150, Seed: 1,
				})
				res := experiment.LeafSpineRun{Topo: cfg.Topo, Stack: st, Flows: flows, Horizon: cfg.Horizon}.Run()
				util = res.Utilization
			}
			b.ReportMetric(util, "util")
		})
	}
}

// BenchmarkFig14ManyToMany reproduces one responsive-ratio point of
// Fig. 14 for AMRT and Homa at degree 8.
func BenchmarkFig14ManyToMany(b *testing.B) {
	cfg := experiment.DefaultSimConfig()
	cfg.Repeats = 1
	cfg.HomaDegrees = []int{8}
	var cells []experiment.M2MCell
	for i := 0; i < b.N; i++ {
		cells = experiment.Fig14Cells(cfg, []float64{0.5})
	}
	for _, c := range cells {
		b.ReportMetric(c.Util, c.Variant+"_util")
		b.ReportMetric(c.MaxQueue, c.Variant+"_maxq")
	}
}

// BenchmarkAblationMarking sweeps the anti-ECN design choices.
func BenchmarkAblationMarking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiment.MarkingAblation()
	}
}

// BenchmarkAblationQueueCap sweeps AMRT's switch data-queue cap.
func BenchmarkAblationQueueCap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiment.QueueCapAblation()
	}
}

// BenchmarkMetricsOverhead measures the cost of the telemetry layer on
// a standard AMRT run: the "off" case is the plain simulation, "on"
// attaches a metrics.Registry (per-downlink series at the default
// 100 µs interval plus all counters). Compare ns/op between the two
// sub-benchmarks — the overhead budget is <5%
// (go test -bench=MetricsOverhead -count=5).
func BenchmarkMetricsOverhead(b *testing.B) {
	cfg := fig12BenchConfig()
	w := workload.WebSearch()
	st := benchStack("AMRT")
	flows := workload.GeneratePoisson(workload.PoissonConfig{
		Hosts: cfg.Topo.Hosts(), Load: 0.5, HostRate: cfg.Topo.HostRate,
		Dist: w, Count: 150, Seed: 1,
	})
	for _, withMetrics := range []bool{false, true} {
		name := "off"
		if withMetrics {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var events uint64
			for i := 0; i < b.N; i++ {
				run := experiment.LeafSpineRun{Topo: cfg.Topo, Stack: st, Flows: flows, Horizon: cfg.Horizon}
				if withMetrics {
					run.Metrics = metrics.NewRegistry()
				}
				res := run.Run()
				events += res.Events
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkSimulatorThroughput measures raw engine throughput on a
// standard AMRT run, in events per second.
func BenchmarkSimulatorThroughput(b *testing.B) {
	benchcases.SimulatorThroughput(b)
}

// BenchmarkShardScaling measures the sharded engine's aggregate
// events/s on a k=8 fat-tree incast at 1/2/4/8 shards. The body lives
// in internal/benchcases, shared with cmd/bench; see
// docs/PARALLELISM.md for why the results are byte-identical across
// the counts and docs/PERFORMANCE.md for the scaling table.
func BenchmarkShardScaling(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("fattree-incast/shards=%d", n), benchcases.ShardScaling(n))
	}
}

// BenchmarkPortHop measures one packet crossing one port hop: ns and
// allocs per hop. The body lives in internal/benchcases.
func BenchmarkPortHop(b *testing.B) { benchcases.PortHop(b) }

// BenchmarkBarrierRound measures one 2-shard synchronization window
// carrying one cross-shard delivery. The body lives in
// internal/benchcases.
func BenchmarkBarrierRound(b *testing.B) { benchcases.BarrierRound(b) }

// BenchmarkRouteInstall measures building a k=16 fat-tree with its
// shortest-path ECMP routes: ns and allocs per build. The body lives in
// internal/benchcases.
func BenchmarkRouteInstall(b *testing.B) { benchcases.RouteInstall(b) }

// BenchmarkFaultInjection measures the v9 fault layer's overhead on
// the sharded engine: a k=4 fat-tree incast with a periodic flap plus
// bursty loss, at 1 and 4 shards. The body lives in
// internal/benchcases, shared with cmd/bench; compare against the
// fault-free ShardScaling cases to isolate the fault machinery's cost.
func BenchmarkFaultInjection(b *testing.B) {
	for _, n := range []int{1, 4} {
		b.Run(fmt.Sprintf("fattree-incast/shards=%d", n), benchcases.FaultInjection(n))
	}
}
