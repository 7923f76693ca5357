package main

import (
	"math/rand"
	"sort"
	"strings"
	"time"

	"amrt/internal/experiment"
	"amrt/internal/faults"
	"amrt/internal/netsim"
	"amrt/internal/sim"
)

const mssBytes = float64(netsim.MSS)

// layerTable lists every per-layer metric a traced run prints, with its
// unit. A workload that bypasses a layer reports 0 for it; README.md maps
// each metric to the workload that loads its layer and to the end-to-end
// metric it should move.
var layerTable = func() [][2]string {
	t := [][2]string{
		{"sim.events", "count"},
		{"sim.ns_per_event", "ns"},
		{"sim.sched_ns", "ns"},
		{"netsim.hop_ns", "ns"},
		{"netsim.hop_allocs", "count"},
		{"netsim.delivered", "count"},
		{"netsim.dropped", "count"},
		{"netsim.mark_ratio", "ratio"},
	}
	for _, s := range fctStacks {
		for _, m := range [][2]string{
			{"run_s", "s"}, {"events", "count"}, {"ns_per_event", "ns"},
			{"allocs_per_event", "count"}, {"ctrl_per_data", "ratio"}, {"goodput_ratio", "ratio"},
		} {
			t = append(t, [2]string{"stack." + s + "." + m[0], m[1]})
		}
	}
	t = append(t, [][2]string{
		{"parallel.speedup", "ratio"},
		{"parallel.efficiency", "ratio"},
		{"faults.parse_us", "us"},
		{"faults.events", "count"},
		{"audit.checks", "count"},
		{"audit.overhead_frac", "ratio"},
		{"metrics.overhead_frac", "ratio"},
		{"metrics.dump_ms", "ms"},
		{"metrics.dump_bytes", "bytes"},
		{"topo.build_ms", "ms"},
		{"topo.build_allocs", "count"},
		{"topo.build_share", "ratio"},
		{"workload.gen_ms", "ms"},
		{"workload.flows", "count"},
		{"experiment.run_p50_ms", "ms"},
		{"experiment.run_max_ms", "ms"},
		{"experiment.self_ms", "ms"},
		{"experiment.stack_new_ms", "ms"},
		{"campaign.cells", "count"},
		{"campaign.hits", "count"},
		{"campaign.misses", "count"},
		{"campaign.resume_us_per_cell", "us"},
		{"campaign.pool_efficiency", "ratio"},
		{"trace.overhead_s", "s"},
	}...)
	for _, l := range spanLayers {
		t = append(t, [2]string{"self_ms." + l, "ms"})
	}
	return t
}()

// spanLayers are the layers spans are attributed to, by span-name prefix
// ("stack.new" counts as transport).
var spanLayers = []string{"amrt", "workload", "faults", "experiment", "topo", "transport", "metrics", "campaign"}

func spanLayer(name string) string {
	if name == "stack.new" {
		return "transport"
	}
	l, _, _ := strings.Cut(name, ".")
	return l
}

// layerMetrics assembles a traced run's per-layer metrics: the costs of
// the untraced base pass, registry counters of the traced direct runs,
// span statistics, the probes, and the workload's own measurements, which
// take precedence.
func (b *bench) layerMetrics(w benchWorkload, base pass, traced []pass) (map[string]metric, error) {
	vals, err := w.layers(b, base, traced)
	if err != nil {
		return nil, err
	}
	set := func(name string, v float64) {
		if _, ok := vals[name]; !ok {
			vals[name] = v
		}
	}

	var events uint64
	var wall time.Duration
	for _, op := range base.ops {
		if op.run != nil {
			events += op.events
			wall += op.wall
		}
	}
	set("sim.events", float64(events))
	if events > 0 {
		set("sim.ns_per_event", float64(wall.Nanoseconds())/float64(events))
	}

	// Registry counters of the first traced pass's direct runs.
	var delivered, dropped, marked, observed int64
	for _, op := range traced[0].ops {
		c := stateOf(op).counters
		delivered += c["net.delivered"]
		dropped += c["net.dropped"]
		if op.name != "AMRT" {
			continue
		}
		for name, v := range c {
			if strings.HasSuffix(name, ".ce_marked") {
				marked += v
			} else if strings.HasSuffix(name, ".ce_observed") {
				observed += v
			}
		}
	}
	set("netsim.delivered", float64(delivered))
	set("netsim.dropped", float64(dropped))
	if observed > 0 {
		set("netsim.mark_ratio", float64(marked)/float64(observed))
	}

	tr := b.tr
	runs := tr.named("experiment.run")
	if len(runs) > 0 {
		ms := durationsMs(runs)
		set("experiment.run_p50_ms", median(ms))
		set("experiment.run_max_ms", ms[len(ms)-1])
		set("experiment.self_ms", float64(tr.selfTime("experiment.run"))/1e6/float64(len(runs)))
		var news time.Duration
		for _, s := range tr.named("stack.new") {
			news += s.dur()
		}
		set("experiment.stack_new_ms", float64(news)/1e6/float64(len(runs)))
		var runTotal, buildTotal time.Duration
		for _, s := range runs {
			runTotal += s.dur()
		}
		builds := tr.named("topo.build")
		allocs := make([]float64, len(builds))
		for i, s := range builds {
			buildTotal += s.dur()
			allocs[i] = float64(s.Allocs)
		}
		set("topo.build_ms", median(durationsMs(builds)))
		set("topo.build_allocs", median(allocs))
		set("topo.build_share", buildTotal.Seconds()/runTotal.Seconds())
	}
	set("metrics.dump_ms", median(durationsMs(tr.named("metrics.dump"))))
	set("workload.gen_ms", median(durationsMs(tr.named("workload.generate"))))
	for _, l := range spanLayers {
		var self time.Duration
		seen := map[string]bool{}
		for _, s := range tr.spans {
			if spanLayer(s.Name) == l && !seen[s.Name] {
				seen[s.Name] = true
				self += tr.selfTime(s.Name)
			}
		}
		set("self_ms."+l, float64(self)/1e6)
	}

	tracedWalls := make([]float64, len(traced))
	for i, p := range traced {
		tracedWalls[i] = p.wall.Seconds()
	}
	set("trace.overhead_s", median(tracedWalls)-base.wall.Seconds())

	set("sim.sched_ns", schedProbe())
	hopNs, hopAllocs := hopProbe()
	set("netsim.hop_ns", hopNs)
	set("netsim.hop_allocs", hopAllocs)
	set("faults.parse_us", parseProbe())

	out := make(map[string]metric, len(layerTable))
	for _, e := range layerTable {
		out[e[0]] = metric{vals[e[0]], e[1]}
	}
	return out, nil
}

// durationsMs returns the spans' durations in ms, sorted.
func durationsMs(spans []*span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.dur()) / 1e6
	}
	sort.Float64s(out)
	return out
}

// schedProbe measures schedule+dispatch through the public sim.Engine API
// at a paper-fct-like shape: a few thousand pending events whose delays
// mix serialization times, link delays and RTT-scale timers. It returns
// ns per event.
func schedProbe() float64 {
	const pending, events = 4096, 1 << 21
	delays := []sim.Time{
		1200 * sim.Nanosecond, 600 * sim.Nanosecond, 12500 * sim.Nanosecond,
		51200 * sim.Nanosecond, 100 * sim.Microsecond, 300 * sim.Microsecond,
	}
	rng := rand.New(rand.NewSource(1))
	seq := make([]sim.Time, 1<<12)
	for i := range seq {
		seq[i] = delays[rng.Intn(len(delays))] + sim.Time(rng.Intn(1000))
	}
	e := sim.NewEngine()
	n := 0
	var fire func()
	fire = func() {
		n++
		if n <= events {
			e.Schedule(seq[n&(len(seq)-1)], fire)
		}
	}
	for i := 0; i < pending; i++ {
		e.Schedule(seq[i&(len(seq)-1)], fire)
	}
	t0 := time.Now()
	e.RunAll()
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// hopProbe sends data packets host → switch → host through AMRT's switch
// queue and anti-ECN marker, built with the public netsim API, paced at
// line rate so the queue stays short. It returns ns and allocations per
// packet for the two link hops and one switch traversal.
func hopProbe() (nsPerPkt, allocsPerPkt float64) {
	const packets = 200000
	st := experiment.MustStack("AMRT", experiment.StackOptions{})
	n := netsim.New()
	src, dst := n.NewHost("src"), n.NewHost("dst")
	sw := n.NewSwitch("sw")
	rate, delay := 10*sim.Gbps, 1*sim.Microsecond
	n.Connect(src, sw, rate, delay, st.HostQueue(), st.SwitchQueue())
	out, _ := n.Connect(sw, dst, rate, delay, st.SwitchQueue(), st.HostQueue())
	out.Marker = st.Marker()
	sw.AddRoute(dst.ID(), out)
	received := 0
	dst.Handler = func(*netsim.Packet) { received++ }
	gap := rate.TxTime(netsim.MSS)
	sent := 0
	var send func()
	send = func() {
		pkt := netsim.NewPacket()
		pkt.Flow, pkt.Type, pkt.Seq, pkt.Size, pkt.Prio = 1, netsim.Data, int32(sent), netsim.MSS, netsim.PrioData
		pkt.Src, pkt.Dst, pkt.CE = src.ID(), dst.ID(), true
		src.Send(pkt)
		sent++
		if sent < packets {
			n.Engine.Schedule(gap, send)
		}
	}
	n.Engine.Schedule(0, send)
	before := mallocs()
	t0 := time.Now()
	n.Engine.RunAll()
	wall := time.Since(t0)
	allocs := mallocs() - before
	if received == 0 {
		return 0, 0
	}
	return float64(wall.Nanoseconds()) / float64(received), float64(allocs) / float64(received)
}

// parseProbe times faults.Parse on the incast-chaos spec, in µs per parse.
func parseProbe() float64 {
	const reps = 2000
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		if _, err := faults.Parse(incastFaults); err != nil {
			return 0
		}
	}
	return float64(time.Since(t0).Microseconds()) / reps
}
