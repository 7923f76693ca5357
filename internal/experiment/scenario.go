package experiment

import (
	"fmt"

	"amrt/internal/netsim"
	"amrt/internal/sim"
	"amrt/internal/stats"
	"amrt/internal/topo"
	"amrt/internal/transport"
)

// ScenarioHarness drives one of the small figure topologies
// (topo.Scenario) at any engine-shard count. It runs the large-scale
// runner's partition, instance and registration stages — hosts ride
// with their access switch, a flow's sender side registers on its
// source's shard and its receiver side on its destination's — so a
// sharded run produces byte-identical traces to the single-engine one
// (see docs/PARALLELISM.md and golden_shard_test.go).
type ScenarioHarness struct {
	S *topo.Scenario
	*shardSet

	flows []*transport.Flow
	cols  []*stats.FCTCollector

	// Per-shard goodput trackers: a flow's tracker lives on its home
	// (receiver) shard only, so no two engine goroutines share one.
	trackers []map[netsim.FlowID]*stats.FlowThroughput
}

// NewScenarioHarness applies the stack's queues and marker to sc,
// builds the scenario, partitions it across nshards engine shards
// (nshards <= 1 is the single-engine reference path), and creates one
// stack instance per shard from base. A positive window tracks each
// flow's goodput, normalized to the link rate, in windows of that
// length; names maps flow ID i+1 to the series name names[i].
func NewScenarioHarness(st Stack, sc topo.ScenarioConfig, build func(topo.ScenarioConfig) *topo.Scenario, base transport.Config, nshards int, window sim.Time, names []string) *ScenarioHarness {
	sc.SwitchQueue, sc.HostQueue, sc.Marker = st.SwitchQueue, st.HostQueue, st.Marker
	s := build(sc)
	hosts := append(append([]*netsim.Host(nil), s.Senders...), s.Receivers...)
	h := &ScenarioHarness{S: s, shardSet: partition(s.Net, hosts, s.Switches, nshards)}
	bases := make([]transport.Config, len(h.shards))
	h.cols = make([]*stats.FCTCollector, len(h.shards))
	h.trackers = make([]map[netsim.FlowID]*stats.FlowThroughput, len(h.shards))
	for i := range bases {
		i := i
		h.cols[i] = stats.NewFCTCollector()
		h.trackers[i] = map[netsim.FlowID]*stats.FlowThroughput{}
		bases[i] = base
		bases[i].Shard = h.shards[i]
		bases[i].Collector = h.cols[i]
		if window <= 0 {
			continue
		}
		bases[i].OnData = func(f *transport.Flow, pkt *netsim.Packet) {
			tr := h.trackers[i][f.ID]
			if tr == nil {
				name := fmt.Sprintf("f%d", f.ID)
				if int(f.ID-1) < len(names) && f.ID >= 1 {
					name = names[f.ID-1]
				}
				tr = stats.NewFlowThroughput(name, window, sc.Rate)
				h.trackers[i][f.ID] = tr
			}
			tr.OnBytes(h.shards[i].Eng().Now(), pkt.Size)
		}
	}
	h.start(st, s.Net, bases)
	return h
}

// scenarioBase is the transport config the scenario figures start
// from: the scenarios' 100 µs base RTT.
var scenarioBase = transport.Config{RTT: 100 * sim.Microsecond}

// fanN builds a topo.NewFanN scenario with the given number of pairs.
func fanN(pairs int) func(topo.ScenarioConfig) *topo.Scenario {
	return func(sc topo.ScenarioConfig) *topo.Scenario { return topo.NewFanN(sc, pairs) }
}

// AddFlow registers a flow through the split path and releases it at
// start. At one shard this produces the exact event sequence of the
// protocols' AddFlow convenience path.
func (h *ScenarioHarness) AddFlow(id netsim.FlowID, src, dst *netsim.Host, size int64, start sim.Time) *transport.Flow {
	f, si, _ := h.register(id, src, dst, size, false)
	h.release(f, si, start)
	h.flows = append(h.flows, f)
	return f
}

// TrackUtil attaches a windowed utilization sampler to a monitored
// port, ticking on the port owner's shard engine (the only goroutine
// allowed to read the monitor mid-run), and returns its series.
func (h *ScenarioHarness) TrackUtil(name string, port *netsim.Port, mon *netsim.PortMonitor, interval, horizon sim.Time) *stats.Series {
	u := stats.NewUtilizationSampler(interval)
	s := u.Track(name, mon.Utilization, mon.ResetWindow)
	u.Start(h.shards[h.assign[port.Owner().ID()]].Eng(), horizon)
	return s
}

// Run executes the scenario to the horizon (the conservative
// time-window loop when partitioned, the plain event loop otherwise).
func (h *ScenarioHarness) Run(horizon sim.Time) {
	h.S.Net.Run(horizon)
}

// FCT merges the per-shard completion collectors.
func (h *ScenarioHarness) FCT() *stats.FCTCollector { return stats.Merge(h.cols...) }

// Series collects the per-flow goodput series in AddFlow order,
// merging the per-shard tracker maps (each flow has at most one
// tracker, on its home shard; flows that never delivered have none).
func (h *ScenarioHarness) Series() []*stats.Series {
	var out []*stats.Series
	for _, f := range h.flows {
		if tr := h.trackers[f.Home][f.ID]; tr != nil {
			out = append(out, tr.Finish())
		}
	}
	return out
}
