// Package benchcases holds the figure benchmark bodies shared by the
// repo-root `go test -bench` suite and the cmd/bench regression
// harness. Each case runs a paper experiment at a fixed seed and
// reduced scale and reports its headline number as a custom metric, so
// both consumers measure exactly the same work: bench_test.go wraps the
// cases as standard benchmarks, cmd/bench drives them via
// testing.Benchmark and records the results in BENCH_<date>.json.
package benchcases

import (
	"testing"

	"amrt/internal/experiment"
	"amrt/internal/faults"
	"amrt/internal/netsim"
	"amrt/internal/sim"
	"amrt/internal/topo"
	"amrt/internal/workload"
)

// Case is one named benchmark. Names are stable identifiers — they key
// the regression comparison across BENCH_*.json files.
type Case struct {
	Name string
	Fn   func(b *testing.B)
}

// All returns the harness case list: the end-to-end figure workloads
// that exercise the engine/netsim/transport hot path, at fixed seeds,
// and the layer microbenchmarks of the network layer.
func All() []Case {
	return []Case{
		{"Fig01MultiBottleneck/pHost", Fig01("pHost")},
		{"Fig01MultiBottleneck/AMRT", Fig01("AMRT")},
		{"Fig02DynamicTraffic/pHost", Fig02("pHost")},
		{"Fig02DynamicTraffic/AMRT", Fig02("AMRT")},
		{"Fig09TestbedDynamic", Fig09},
		{"Fig11TestbedMultiBottleneck/AMRT", Fig11("AMRT")},
		{"SimulatorThroughput", SimulatorThroughput},
		{"ShardScaling/fattree-incast/shards=1", ShardScaling(1)},
		{"ShardScaling/fattree-incast/shards=2", ShardScaling(2)},
		{"ShardScaling/fattree-incast/shards=4", ShardScaling(4)},
		{"ShardScaling/fattree-incast/shards=8", ShardScaling(8)},
		{"FaultInjection/fattree-incast/shards=1", FaultInjection(1)},
		{"FaultInjection/fattree-incast/shards=4", FaultInjection(4)},
		{"PortHop", PortHop},
		{"BarrierRound", BarrierRound},
		{"RouteInstall", RouteInstall},
	}
}

func stack(name string) experiment.Stack {
	return experiment.MustStack(name, experiment.StackOptions{})
}

// Fig01 reproduces §2.1 / Fig. 1 (multi-bottleneck motivation) for one
// protocol and reports the squeezed-phase bottleneck utilization.
func Fig01(proto string) func(b *testing.B) {
	return func(b *testing.B) {
		var last float64
		for i := 0; i < b.N; i++ {
			res := experiment.Fig1(stack(proto), 1)
			last = res.Util.MeanBetween(4*sim.Millisecond, 8*sim.Millisecond)
		}
		b.ReportMetric(last, "util_squeezed")
	}
}

// Fig02 reproduces §2.2 / Fig. 2 (dynamic traffic) for one protocol.
func Fig02(proto string) func(b *testing.B) {
	return func(b *testing.B) {
		var mean float64
		for i := 0; i < b.N; i++ {
			res := experiment.Fig2(stack(proto), 1)
			mean = res.Util.Mean()
		}
		b.ReportMetric(mean, "util_mean")
	}
}

// Fig09 reproduces the §7 dynamic-traffic testbed run at 1 GbE with
// AMRT and reports f2's FCT (the flow that absorbs f1's share).
func Fig09(b *testing.B) {
	var fct float64
	for i := 0; i < b.N; i++ {
		res := experiment.Fig9(stack("AMRT"), 1)
		fct = res.Flows[1].FCT().Milliseconds()
	}
	b.ReportMetric(fct, "f2_fct_ms")
}

// Fig11 reproduces the §7 multi-bottleneck testbed comparison for one
// protocol.
func Fig11(proto string) func(b *testing.B) {
	return func(b *testing.B) {
		var fct float64
		for i := 0; i < b.N; i++ {
			res := experiment.Fig11(stack(proto), 1)
			if res.Flows[1].Done {
				fct = res.Flows[1].FCT().Milliseconds()
			}
		}
		b.ReportMetric(fct, "f2_fct_ms")
	}
}

// SimulatorThroughput measures raw engine throughput on a standard AMRT
// leaf-spine run, in events per second.
func SimulatorThroughput(b *testing.B) {
	cfg := experiment.DefaultSimConfig()
	cfg.Topo.Leaves, cfg.Topo.Spines, cfg.Topo.HostsPerLeaf = 2, 2, 8
	w := workload.WebSearch()
	st := stack("AMRT")
	flows := workload.GeneratePoisson(workload.PoissonConfig{
		Hosts: cfg.Topo.Hosts(), Load: 0.5, HostRate: cfg.Topo.HostRate,
		Dist: w, Count: 150, Seed: 1,
	})
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		res := experiment.LeafSpineRun{Topo: cfg.Topo, Stack: st, Flows: flows, Horizon: cfg.Horizon}.Run()
		events += res.Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

// FaultInjection measures the v9 fault layer's overhead on the sharded
// engine: the ShardScaling fat-tree incast (at k=4 to keep the cell
// fast) with a periodic uplink flap plus Gilbert–Elliott bursty loss
// applied — the per-queue loss draws and the per-shard fault homing on
// the hot path. Comparing events/s against the same shard count's
// fault-free ShardScaling case isolates what the fault machinery
// costs; comparing shards=1 against shards=4 shows the cost is not
// amplified by the barrier protocol.
func FaultInjection(nshards int) func(b *testing.B) {
	return func(b *testing.B) {
		cfg := topo.DefaultFatTree()
		cfg.K = 4
		flows := workload.GenerateIncast(workload.IncastConfig{
			Hosts:    cfg.Hosts(),
			Degree:   8,
			Bytes:    64 << 10,
			Load:     0.6,
			HostRate: cfg.HostRate,
			Count:    256,
			Seed:     1,
		})
		st := stack("AMRT")
		const spec = "link=edge0.0->agg0.0,down=1ms,up=2ms,period=4ms;" +
			"burst-loss=tobad:0.003,togood:0.2,bad:0.5"
		b.ResetTimer()
		var events uint64
		for i := 0; i < b.N; i++ {
			plan := faults.MustParse(spec)
			plan.Seed = 1
			res := experiment.LeafSpineRun{
				Topo: cfg, Stack: st, Flows: flows,
				Horizon: 20 * sim.Millisecond, Shards: nshards,
				Faults: plan,
			}.Run()
			events += res.Events
		}
		b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	}
}

// ShardScaling measures the sharded engine's aggregate dispatch rate —
// total events across all shard engines per wall second — on a k=8
// fat-tree incast, the regime the parallel engine exists for
// (docs/PARALLELISM.md). One case per shard count keys the scaling
// table in BENCH_*.json and docs/PERFORMANCE.md; results are
// byte-identical across the counts, so the cases differ only in wall
// clock. Speedup needs cores: at GOMAXPROCS=1 the windows serialize
// and the barrier overhead shows instead.
func ShardScaling(nshards int) func(b *testing.B) {
	return func(b *testing.B) {
		cfg := topo.DefaultFatTree()
		cfg.K = 8
		flows := workload.GenerateIncast(workload.IncastConfig{
			Hosts:    cfg.Hosts(),
			Degree:   16,
			Bytes:    64 << 10,
			Load:     0.6,
			HostRate: cfg.HostRate,
			Count:    512,
			Seed:     1,
		})
		st := stack("AMRT")
		b.ResetTimer()
		var events uint64
		for i := 0; i < b.N; i++ {
			res := experiment.LeafSpineRun{
				Topo: cfg, Stack: st, Flows: flows,
				Horizon: 20 * sim.Millisecond, Shards: nshards,
			}.Run()
			events += res.Events
		}
		b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	}
}

// hostLink builds two hosts joined by one 10 Gb/s, 1 µs link with
// drop-tail queues.
func hostLink() (n *netsim.Network, a, b *netsim.Host) {
	n = netsim.New()
	a, b = n.NewHost("a"), n.NewHost("b")
	n.Connect(a, b, 10*sim.Gbps, sim.Microsecond, netsim.NewDropTail(64), netsim.NewDropTail(64))
	return n, a, b
}

// sendOne hands one pooled packet of size bytes from a to b's NIC queue.
func sendOne(a, b *netsim.Host, size int) {
	pkt := netsim.NewPacket()
	pkt.Flow, pkt.Type, pkt.Size, pkt.Prio = 1, netsim.Data, size, netsim.PrioData
	pkt.Src, pkt.Dst = a.ID(), b.ID()
	a.Send(pkt)
}

// PortHop is the per-hop layer microbenchmark: one op is one MSS packet
// crossing one port hop — enqueue, dequeue, serialization, transmission
// completion, propagation and delivery to the far host — on a single
// engine. ns/op and allocs/op are the cost of a hop.
func PortHop(b *testing.B) {
	n, src, dst := hostLink()
	got := 0
	dst.Handler = func(*netsim.Packet) { got++ }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sendOne(src, dst, netsim.MSS)
		n.Run(sim.Forever)
	}
	if got != b.N {
		b.Fatalf("delivered %d of %d packets", got, b.N)
	}
}

// BarrierRound is the shard-barrier layer microbenchmark: the two ends
// of one link on two shards, a small packet sent every lookahead, so
// one op is one synchronization window carrying one cross-shard
// delivery through the outbox. ns/op is the cost of a barrier round.
func BarrierRound(b *testing.B) {
	n, src, dst := hostLink()
	n.Partition(2, func(node netsim.Node) int {
		if node == dst {
			return 1
		}
		return 0
	})
	got := 0
	dst.Handler = func(*netsim.Packet) { got++ }
	eng := src.Shard().Eng()
	sent := 0
	var send func()
	send = func() {
		sendOne(src, dst, 64)
		if sent++; sent < b.N {
			eng.Schedule(n.Lookahead(), send)
		}
	}
	eng.Schedule(0, send)
	b.ResetTimer()
	n.Run(sim.Forever)
	if got != b.N {
		b.Fatalf("delivered %d of %d packets", got, b.N)
	}
}

// RouteInstall is the route-install layer microbenchmark: one op builds
// a k=16 fat-tree (1024 hosts, 320 switches) with topo.NewFatTree,
// shortest-path ECMP routes included — the set-up cost every sweep cell
// on that fabric pays. allocs/op is the number to watch.
func RouteInstall(b *testing.B) {
	cfg := topo.DefaultFatTree()
	cfg.K = 16
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		topo.NewFatTree(cfg)
	}
}
