package experiment

import (
	"fmt"
	"sort"

	"amrt/internal/audit"
	"amrt/internal/faults"
	"amrt/internal/metrics"
	"amrt/internal/netsim"
	"amrt/internal/sim"
	"amrt/internal/stats"
	"amrt/internal/topo"
	"amrt/internal/trace"
	"amrt/internal/transport"
	"amrt/internal/workload"
)

// LeafSpineRun is one large-scale simulation: a protocol stack on a
// datacenter fabric with a list of flows. Despite the historical name
// it drives any topo.Builder — leaf–spine, k-ary fat-tree, or
// three-tier Clos — through the same route/ECMP, fault, telemetry, and
// audit machinery.
type LeafSpineRun struct {
	Topo    topo.Builder
	Stack   Stack
	Flows   []workload.FlowSpec
	Horizon sim.Time // hard stop; incomplete flows are reported

	// Shards is the engine-shard count (see docs/PARALLELISM.md): 0 or 1
	// runs the single-engine reference path; higher values partition the
	// fabric across that many cores, hosts riding with their ToR, and run
	// the conservative time-window loop. Results are byte-identical at
	// every shard count, fault plans included. Sharded runs require a
	// finite Horizon.
	Shards int

	// Trace, if non-nil, records per-flow timelines and drops. Sharded
	// runs record into one recorder per shard and absorb them back into
	// this one after the run; the canonical CSV sort makes the dump
	// byte-identical to a single-shard run's.
	Trace *trace.Recorder

	// Faults, if non-nil, is a fault-injection plan (see internal/faults):
	// its loss processes wrap the stack's switch queues and its link and
	// node events are homed to the owning shards before the run starts.
	// Unknown link/host/switch names in the plan are an RunE error —
	// plans are validated when parsed, but only the built topology can
	// resolve names.
	Faults *faults.Plan

	// Metrics, if non-nil, receives the run's telemetry: per-downlink
	// queue/utilization/mark-rate series, network delivery and drop
	// counters, kernel flow counters, and protocol-specific counters —
	// sampled every MetricsInterval of virtual time (default 100 µs) by
	// one late-band ticker per shard on the simulation clock, so output
	// is deterministic (see internal/metrics and docs/TELEMETRY.md).
	// Sharded runs register per-shard slices of each instrument and merge
	// them after the run; read the merged registry from RunResult.Metrics
	// (which is this registry itself on single-shard runs).
	Metrics *metrics.Registry
	// MetricsInterval is the sampling period (default
	// DefaultMetricsInterval).
	MetricsInterval sim.Time

	// Interrupt, if non-nil, is polled every few thousand executed
	// events (sim.Engine.SetInterrupt) on every shard engine; returning
	// true aborts the run early. Context-cancellable callers set it to
	// `ctx.Err() != nil`. An interrupt that never fires does not perturb
	// determinism.
	Interrupt func() bool

	// Audit attaches the runtime invariant auditor (internal/audit):
	// conservation, queue-bound, and grant-budget checks run every
	// MetricsInterval of virtual time plus once after the run, panicking
	// with a forensic dump on the first violation. Sharded runs audit
	// each shard's slice on that shard's clock and check the cross-shard
	// grant-budget ledger at window barriers. Off by default — the
	// accounting the checks read is maintained regardless, but the
	// periodic sweep costs a few percent of wall time.
	Audit bool

	// StallRTTs is the flow-liveness watchdog window in base RTTs: a
	// live flow with no data progress for this long, while both its
	// access links are administratively up, is reported Stalled (a late
	// completion clears the report). Default 128 — deliberately above
	// the protocols' 64×RTT recovery-backoff cap, so a flow is only
	// called stalled once every built-in recovery mechanism has had its
	// chance. Negative disables the watchdog.
	StallRTTs int
}

// Late-band sub-keys the runner schedules its per-shard observers under:
// observer slots of the sim.SubObserver partition, above every fault
// action of the same instant. metrics.StartUntil owns slot 1; (time,
// sub) pairs must stay unique per engine.
const (
	subWatchdog = sim.SubObserver | 2
	subAudit    = sim.SubObserver | 3
)

// FlowOutcome is one flow's final disposition in a RunResult.
type FlowOutcome struct {
	// ID is the flow ID from the workload spec.
	ID netsim.FlowID
	// Outcome is the terminal state: completed, stalled, running
	// (incomplete at horizon), or killed-by-crash.
	Outcome transport.Outcome
	// LastProgress is the last virtual time data reached the receiver
	// (zero if none ever did).
	LastProgress sim.Time
	// Diagnosis explains non-completed outcomes ("" for completed).
	Diagnosis string
	// MissedDeadline reports a flow with a workload deadline that
	// completed late or not at all (see workload.FlowSpec.Deadline).
	MissedDeadline bool
}

// RunResult aggregates what the figures need from one run.
type RunResult struct {
	Stack     string
	Completed int
	Total     int

	AFCT sim.Time
	P99  sim.Time

	// Utilization is the paper's bottleneck metric: total delivered
	// payload over total downlink capacity during backlogged time (the
	// union of each downlink's flows' active intervals — idle periods
	// with nothing to send do not count against the protocol). The
	// aggregation is byte-weighted across downlinks, so an RTT-bound
	// tiny flow does not drag the figure the way an unweighted mean
	// would.
	Utilization float64

	// MaxQueue is the deepest egress queue observed on any monitored
	// downlink, in packets.
	MaxQueue int

	Drops   int64
	Trims   int64
	LastEnd sim.Time
	// Events counts dispatched simulation events summed across shard
	// engines, excluding the late observer band (metrics/watchdog/audit
	// ticks), so the figure is identical at every shard count.
	Events    uint64
	Collector *stats.FCTCollector

	// Metrics is the registry to dump: the LeafSpineRun.Metrics registry
	// itself on single-shard runs, or the merged view of the per-shard
	// registries on sharded runs. Nil when no registry was attached.
	Metrics *metrics.Registry

	// Outcomes lists every responsive flow's final disposition in
	// workload spec order; Stalled and Killed count the watchdog-flagged
	// and crash-killed subsets. AuditChecks/AuditViolations report the
	// invariant auditors' activity (zero when Audit is off; a violation
	// normally panics before the result is built).
	Outcomes        []FlowOutcome
	Stalled         int
	Killed          int
	AuditChecks     int64
	AuditViolations int64

	// DeadlineTotal counts flows carrying a workload deadline;
	// DeadlineMissed counts the subset that finished late or never
	// (including RPC responses whose request never completed).
	DeadlineTotal  int
	DeadlineMissed int
}

// Run executes the simulation synchronously and returns its result,
// panicking on configuration errors. Callers that want to surface bad
// configurations as diagnosable failures use RunE.
func (r LeafSpineRun) Run() RunResult {
	res, err := r.RunE()
	if err != nil {
		panic(err)
	}
	return res
}

// RunE executes the simulation synchronously, returning an error for
// configurations that cannot run: a sharded run without a finite
// horizon, or a fault plan naming links, hosts, or switches the built
// topology does not have.
//
// It is the run pipeline (docs/ARCHITECTURE.md): build the fabric,
// partition it, create one stack instance per shard, register the
// flows, attach the observers, run, and collect. ScenarioHarness shares
// the partition, instance and registration stages.
func (r LeafSpineRun) RunE() (RunResult, error) {
	ls := r.Topo.Build(topo.Overlay{
		HostQueue:   r.Stack.HostQueue,
		SwitchQueue: r.Faults.WrapQueues(r.Stack.SwitchQueue), // nil-safe
		Marker:      r.Stack.Marker,
	})

	horizon := r.Horizon
	if horizon == 0 {
		horizon = sim.Forever
	}
	if r.Shards > 1 && horizon == sim.Forever {
		return RunResult{}, fmt.Errorf("experiment: sharded runs require a finite Horizon")
	}
	fr := &fabricRun{r: r, ls: ls, horizon: horizon,
		shardSet: partition(ls.Net, ls.Hosts, ls.Switches, r.Shards)}
	fr.startInstances()
	fr.registerFlows()
	if err := fr.attachObservers(); err != nil {
		return RunResult{}, err
	}
	ls.Net.Run(horizon)
	ls.Net.BarrierHook = nil
	return fr.collect(), nil
}

// fabricRun is one RunE's state as it moves through the pipeline. The
// per-shard slices are merged after the run; index s belongs to shard
// s's goroutine while windows execute.
type fabricRun struct {
	r       LeafSpineRun
	ls      *topo.Fabric
	horizon sim.Time
	*shardSet

	cols       []*stats.FCTCollector
	lastEnd    []sim.Time
	parts      []*metrics.Registry
	recs       []*trace.Recorder
	stallDiags []map[netsim.FlowID]string

	// dsts is the per-destination state of the utilization metric, fully
	// built during setup and only read during the run; the per-entry
	// fields are written exclusively by the destination's home shard.
	dsts map[netsim.NodeID]*dstState
	// deps lists dependent flows (workload.FlowSpec.After) by parent ID:
	// pre-created without a start and released when the parent
	// completes, so request/response loops are closed-loop. Built at
	// setup, read-only during the run (the release path may run on any
	// shard).
	deps map[netsim.FlowID][]depChild
	// flows lists every flow, dependents included, in spec order.
	flows  []*transport.Flow
	audits []*audit.Auditor
}

// dstState is one destination's delivered payload and the flows
// targeting it (for the backlogged-interval computation after the run).
// The downlink port doubles as the watchdog's receiver-side admin-state
// probe.
type dstState struct {
	mon     *netsim.PortMonitor
	dl      *netsim.Port
	payload int64
	flows   []*transport.Flow
}

type depChild struct {
	flow            *transport.Flow
	offset          sim.Time // spec Start: delay after the parent's End
	srcIdx, homeIdx int
}

// startInstances is the instance stage: the per-shard result slices,
// one base config per shard — its completion hook releases dependent
// flows, its delivery hook feeds the utilization metric — and one stack
// instance per shard.
func (fr *fabricRun) startInstances() {
	r, nshards := fr.r, len(fr.shards)
	fr.cols = make([]*stats.FCTCollector, nshards)
	fr.lastEnd = make([]sim.Time, nshards)
	fr.parts = make([]*metrics.Registry, nshards)
	fr.recs = make([]*trace.Recorder, nshards)
	fr.stallDiags = make([]map[netsim.FlowID]string, nshards)
	for s := 0; s < nshards; s++ {
		fr.cols[s] = stats.NewFCTCollector()
		fr.stallDiags[s] = map[netsim.FlowID]string{}
	}
	if r.Metrics != nil {
		fr.parts[0] = r.Metrics
		for s := 1; s < nshards; s++ {
			fr.parts[s] = metrics.NewRegistry()
		}
	}
	if r.Trace != nil {
		fr.recs[0] = r.Trace
		for s := 1; s < nshards; s++ {
			fr.recs[s] = &trace.Recorder{MaxEvents: r.Trace.MaxEvents}
		}
	}
	fr.dsts = map[netsim.NodeID]*dstState{}
	fr.deps = map[netsim.FlowID][]depChild{}

	dsts, deps, lastEnd, recs, shards := fr.dsts, fr.deps, fr.lastEnd, fr.recs, fr.shards
	la := fr.ls.Net.Lookahead()
	bases := make([]transport.Config, nshards)
	for s := 0; s < nshards; s++ {
		s := s
		bases[s] = transport.Config{
			RTT:       fr.ls.RTT(),
			Shard:     shards[s],
			Collector: fr.cols[s],
			Metrics:   fr.parts[s],
			OnDone: func(f *transport.Flow) {
				if f.End > lastEnd[s] {
					lastEnd[s] = f.End
				}
				for _, dc := range deps[f.ID] {
					dc := dc
					// The release handshake crosses shards through the
					// deterministic signal channel: one signal starts the
					// child on its source shard, one marks it released on
					// its home shard. Both signals take exactly one
					// lookahead at every shard count — including one — so
					// the child's start time is partition-independent.
					start := f.End + dc.offset
					if min := f.End + la; start < min {
						start = min
					}
					child := dc.flow
					sh := shards[s]
					sh.Signal(f.Dst, child.Src, func() {
						fr.insts[dc.srcIdx].Release(child, start)
					})
					sh.Signal(f.Dst, child.Dst, func() {
						child.Released = true
						child.Start = start
						if !child.Unresponsive {
							if d := dsts[child.Dst.ID()]; d != nil {
								d.flows = append(d.flows, child)
							}
						}
						if recs[dc.homeIdx] != nil {
							recs[dc.homeIdx].RecordStart(child)
						}
					})
				}
			},
			OnData: func(f *transport.Flow, pkt *netsim.Packet) {
				if d := dsts[f.Dst.ID()]; d != nil {
					d.payload += int64(pkt.Size)
				}
			},
		}
		if recs[s] != nil {
			recs[s].AttachShard(shards[s], &bases[s])
		}
		shards[s].RegisterMetrics(fr.parts[s])
	}
	fr.start(r.Stack, fr.ls.Net, bases)
}

// registerFlows is the registration stage: every flow — dependents
// included — is created up front in spec order through the shared split
// path. Top-level flows are released at their spec start; a dependent's
// destination bookkeeping and trace start record wait for its release
// signal, like the injection itself.
func (fr *fabricRun) registerFlows() {
	ls := fr.ls
	fr.flows = make([]*transport.Flow, len(fr.r.Flows))
	for i, fs := range fr.r.Flows {
		f, si, di := fr.register(fs.ID, ls.Hosts[fs.Src], ls.Hosts[fs.Dst], fs.Size, fs.Unresponsive)
		d := fr.dsts[f.Dst.ID()]
		if d == nil {
			// RegisterMetrics attaches (or reuses) the monitor and, with
			// a registry, publishes the downlink's telemetry series on
			// the owning shard. Spec order makes the registration order
			// deterministic.
			dl := ls.Downlink(fs.Dst)
			d = &dstState{mon: dl.RegisterMetrics(fr.parts[di]), dl: dl}
			fr.dsts[f.Dst.ID()] = d
		}
		if fs.After != 0 {
			fr.deps[fs.After] = append(fr.deps[fs.After], depChild{flow: f, offset: fs.Start, srcIdx: si, homeIdx: di})
		} else {
			fr.release(f, si, fs.Start)
			if !fs.Unresponsive {
				d.flows = append(d.flows, f)
			}
			if fr.recs[di] != nil {
				fr.recs[di].RecordStart(f)
			}
		}
		fr.flows[i] = f
	}
}

// attachObservers is the observer stage: the fault plan, the liveness
// watchdog, the invariant auditors, the telemetry tickers and the
// interrupt poll, scheduled in that order.
func (fr *fabricRun) attachObservers() error {
	r := fr.r
	if r.Faults != nil {
		// Node-fault hook: each shard's stack instance drops the slice of
		// the crashed host's state it owns, at the instant the fault layer
		// parks the host's links. The fault layer fires the hook once per
		// shard, on that shard's engine.
		r.Faults.CrashHook = func(sh *netsim.Shard, h *netsim.Host) {
			fr.insts[sh.Index()].OnHostCrash(h)
		}
		if err := r.Faults.Apply(fr.ls.Net, fr.horizon); err != nil {
			return err
		}
		r.Faults.RegisterMetrics(fr.parts[0])
	}
	fr.startWatchdog()
	fr.startAudit()
	fr.startMetrics()
	if r.Interrupt != nil {
		for _, sh := range fr.shards {
			sh.Eng().SetInterrupt(0, r.Interrupt)
		}
	}
	return nil
}

// anyLive gates the self-rescheduling observer ticks on open-ended
// (Horizon == 0, necessarily single-shard) runs so they terminate once
// every responsive flow is done; dependents awaiting release are not
// Done, so they keep the ticks alive too. Finite-horizon runs instead
// tick to the horizon unconditionally — a pure function of (interval,
// horizon), identical at every shard count.
func (fr *fabricRun) anyLive() bool {
	for _, f := range fr.flows {
		if !f.Done && !f.Unresponsive {
			return true
		}
	}
	return false
}

// reschedule continues an observer tick chain in the late band.
func (fr *fabricRun) reschedule(eng *sim.Engine, sub uint64, interval sim.Time, tick func()) {
	next := eng.Now() + interval
	if fr.horizon == sim.Forever {
		if fr.anyLive() {
			eng.ScheduleLate(next, sub, tick)
		}
		return
	}
	if next <= fr.horizon {
		eng.ScheduleLate(next, sub, tick)
	}
}

// startWatchdog arms the flow-liveness watchdog: no data progress for
// StallRTTs base RTTs while both access links are administratively up →
// Stalled (a late completion, or resumed progress, clears the report).
// One tick chain per shard, each inspecting only the flows homed there;
// the access-link admin probes consult the fault plan's AdminDown
// oracle — a pure function of the plan, safe from any shard — instead
// of reading another shard's live port state.
func (fr *fabricRun) startWatchdog() {
	stallRTTs := fr.r.StallRTTs
	if stallRTTs == 0 {
		stallRTTs = DefaultStallRTTs
	}
	if stallRTTs <= 0 {
		return
	}
	plan := fr.r.Faults
	window := sim.Time(stallRTTs) * fr.ls.RTT()
	for s := range fr.shards {
		s := s
		eng := fr.shards[s].Eng()
		var tick func()
		tick = func() {
			now := eng.Now()
			for _, f := range fr.insts[s].OrderedFlows() {
				if int(f.Home) != s || !f.Released || f.Done || f.Unresponsive ||
					now < f.Start || f.Outcome != transport.OutcomeRunning {
					continue
				}
				last := f.LastProgress
				if last < f.Start {
					last = f.Start
				}
				if now-last < window {
					continue
				}
				// A parked access link explains the silence: that flow is
				// a fault casualty, not a liveness bug.
				if plan.AdminDown(f.Src.NIC(), now) {
					continue
				}
				if d := fr.dsts[f.Dst.ID()]; d != nil && plan.AdminDown(d.dl, now) {
					continue
				}
				f.Outcome = transport.OutcomeStalled
				fr.stallDiags[s][f.ID] = fmt.Sprintf(
					"no data progress since %v (stall window %v = %d RTTs) with both access links up",
					last, window, stallRTTs)
			}
			fr.reschedule(eng, subWatchdog, window/4, tick)
		}
		eng.ScheduleLate(window/4, subWatchdog, tick)
	}
}

// startAudit attaches the invariant auditors (see internal/audit):
// per-shard checks every metrics interval on the shard's own clock,
// plus — on sharded runs — a whole-network auditor carrying the
// cross-shard grant-budget ledger at every window barrier. Each panics
// with a forensic dump on the first violation.
func (fr *fabricRun) startAudit() {
	if !fr.r.Audit {
		return
	}
	interval := MetricsIntervalOrDefault(fr.r.MetricsInterval)
	startTick := func(aud *audit.Auditor, eng *sim.Engine) {
		fr.audits = append(fr.audits, aud)
		var tick func()
		tick = func() {
			aud.Check()
			fr.reschedule(eng, subAudit, interval, tick)
		}
		eng.ScheduleLate(interval, subAudit, tick)
	}
	net := fr.ls.Net
	if len(fr.shards) == 1 {
		startTick(audit.New(net, fr.insts[0]), net.Engine)
		return
	}
	for s, sh := range fr.shards {
		startTick(audit.NewShard(sh, fr.insts[s]), sh.Eng())
	}
	gaud := audit.New(net, globalAuditStack(fr.insts, fr.flows))
	fr.audits = append(fr.audits, gaud)
	net.BarrierHook = func() { gaud.Check() }
}

// startMetrics registers the outcome counters and starts one telemetry
// ticker per shard.
func (fr *fabricRun) startMetrics() {
	if fr.r.Metrics == nil {
		return
	}
	for s := range fr.shards {
		s := s
		fr.parts[s].CounterFunc("experiment.flows_stalled", func() int64 {
			return countOutcome(fr.insts[s], s, transport.OutcomeStalled)
		})
		fr.parts[s].CounterFunc("experiment.flows_killed_by_crash", func() int64 {
			return countOutcome(fr.insts[s], s, transport.OutcomeKilledByCrash)
		})
	}
	interval := MetricsIntervalOrDefault(fr.r.MetricsInterval)
	if fr.horizon == sim.Forever {
		// Open-ended runs are single-shard; the legacy ticker stops on
		// the queue-drain heuristic.
		fr.r.Metrics.Start(fr.ls.Net.Engine, interval)
		return
	}
	for s, sh := range fr.shards {
		fr.parts[s].StartUntil(sh.Eng(), interval, fr.horizon)
	}
}

// collect is the final stage: a last audit sweep, the merged trace and
// telemetry, every flow's disposition, and the figure statistics.
func (fr *fabricRun) collect() RunResult {
	r, ls := fr.r, fr.ls
	res := RunResult{Stack: r.Stack.Name, Total: len(r.Flows)}
	for _, aud := range fr.audits {
		aud.Check() // final end-of-run sweep
		res.AuditChecks += aud.Checks
		res.AuditViolations += aud.Violations
	}
	if r.Trace != nil {
		r.Trace.Absorb(fr.recs...)
	}
	if r.Metrics != nil {
		if len(fr.shards) == 1 {
			res.Metrics = r.Metrics
		} else {
			res.Metrics = metrics.Merged(fr.parts...)
		}
	}
	for _, e := range fr.lastEnd {
		if e > res.LastEnd {
			res.LastEnd = e
		}
	}

	// Final dispositions, in spec order for determinism. Dependents
	// whose parent never completed were never released; they are
	// incomplete by definition (and missed deadlines if they carry one).
	for i, fs := range r.Flows {
		f := fr.flows[i]
		if f.Unresponsive {
			res.Total-- // can never complete; exclude from the target
			continue
		}
		if fs.After != 0 && !f.Released {
			o := FlowOutcome{
				ID: f.ID, Outcome: transport.OutcomeRunning,
				Diagnosis: fmt.Sprintf("never released: flow %d did not complete", fs.After),
			}
			if fs.Deadline > 0 {
				res.DeadlineTotal++
				res.DeadlineMissed++
				o.MissedDeadline = true
			}
			res.Outcomes = append(res.Outcomes, o)
			continue
		}
		o := FlowOutcome{ID: f.ID, Outcome: f.Outcome, LastProgress: f.LastProgress}
		switch f.Outcome {
		case transport.OutcomeStalled:
			o.Diagnosis = fr.stallDiags[f.Home][f.ID]
			res.Stalled++
		case transport.OutcomeKilledByCrash:
			o.Diagnosis = "endpoint crashed before completion"
			res.Killed++
		case transport.OutcomeRunning:
			o.Diagnosis = fmt.Sprintf("incomplete at horizon (last progress %v)", f.LastProgress)
		}
		if fs.Deadline > 0 {
			res.DeadlineTotal++
			if !f.Done || f.End > fs.Deadline {
				res.DeadlineMissed++
				o.MissedDeadline = true
			}
		}
		res.Outcomes = append(res.Outcomes, o)
	}

	// The canonical merge runs at every shard count, so the one
	// floating-point fold order backs all reported statistics.
	col := stats.Merge(fr.cols...)
	res.Collector = col
	res.Completed = col.Count()
	res.AFCT = col.Mean()
	res.P99 = col.P99()
	res.Drops = ls.Net.Dropped()
	total, late := ls.Net.Executed()
	res.Events = total - late

	// Host-index iteration keeps the floating-point utilization fold
	// deterministic (map order is not).
	var payloadSum, capSum float64
	for hi := range ls.Hosts {
		d := fr.dsts[ls.Hosts[hi].ID()]
		if d == nil {
			continue
		}
		if d.mon.MaxQueueLen > res.MaxQueue {
			res.MaxQueue = d.mon.MaxQueueLen
		}
		busy := backloggedTime(d.flows, fr.horizon)
		if busy <= 0 {
			continue
		}
		capBytes := float64(ls.AccessRate.BytesIn(busy))
		if capBytes <= 0 {
			continue
		}
		pay := float64(d.payload)
		if pay > capBytes {
			pay = capBytes
		}
		payloadSum += pay
		capSum += capBytes
	}
	if capSum > 0 {
		res.Utilization = payloadSum / capSum
	}
	for _, sw := range ls.Switches {
		res.Trims += trimCount(sw)
	}
	return res
}

// shardSet is what the partition and instance stages produce, shared by
// LeafSpineRun and ScenarioHarness: the node→shard map, the network's
// engine shards, and one stack instance per shard.
type shardSet struct {
	// assign maps each node to its shard; nil on an unpartitioned
	// network, where every lookup reads shard 0.
	assign map[netsim.NodeID]int
	shards []*netsim.Shard
	insts  []Instance
}

// partition is the partition stage and the package's one node→shard
// rule. Access switches — each host's uplink peer, in host order —
// round-robin across the shards and every host rides with its access
// switch, keeping the dense host↔access-switch traffic intra-shard; the
// remaining switches then round-robin in the given order. nshards <= 1
// leaves the network unpartitioned. The assignment affects only
// wall-clock performance, never results.
func partition(net *netsim.Network, hosts []*netsim.Host, switches []*netsim.Switch, nshards int) *shardSet {
	ss := &shardSet{}
	if nshards > 1 {
		am := make(map[netsim.NodeID]int, len(hosts)+len(switches))
		access := 0
		for _, h := range hosts {
			sw := h.NIC().Link().To.ID()
			if _, ok := am[sw]; !ok {
				am[sw] = access % nshards
				access++
			}
			am[h.ID()] = am[sw]
		}
		rr := 0
		for _, sw := range switches {
			if _, ok := am[sw.ID()]; !ok {
				am[sw.ID()] = rr % nshards
				rr++
			}
		}
		net.Partition(nshards, func(n netsim.Node) int { return am[n.ID()] })
		ss.assign = am
	}
	ss.shards = net.Shards()
	return ss
}

// start is the instance stage: one stack instance per shard, built from
// that shard's base config.
func (ss *shardSet) start(st Stack, net *netsim.Network, bases []transport.Config) {
	ss.insts = make([]Instance, len(bases))
	for s := range bases {
		ss.insts[s] = st.New(net, bases[s])
	}
}

// register is the registration stage for one flow. Every flow takes the
// split path — AddPending on its source's shard instance, Adopt on its
// destination's, which becomes its home — even when both are the same
// instance, so no later flow's source-side install can stomp a host
// handler another instance owns. It returns the flow and its source and
// home shards.
func (ss *shardSet) register(id netsim.FlowID, src, dst *netsim.Host, size int64, unresponsive bool) (f *transport.Flow, si, di int) {
	si, di = ss.assign[src.ID()], ss.assign[dst.ID()]
	f = ss.insts[si].AddPending(id, src, dst, size, unresponsive)
	ss.insts[di].Adopt(f)
	f.Home = int32(di)
	return f, si, di
}

// release starts a registered flow at start from its source shard.
func (ss *shardSet) release(f *transport.Flow, si int, start sim.Time) {
	f.Released = true
	f.Start = start
	ss.insts[si].Release(f, start)
}

// flowsView gives the whole-network auditor's forensic dump the global
// flow list (per-shard instances each hold only their slice).
type flowsView struct{ flows []*transport.Flow }

// OrderedFlows implements audit.FlowLister.
func (v flowsView) OrderedFlows() []*transport.Flow { return v.flows }

// ledgerView additionally sums the per-shard instances' grant ledgers:
// senders spend on source shards, receivers grant on home shards, so
// only the cross-shard sum is invariant.
type ledgerView struct {
	flowsView
	insts []Instance
}

// DataPacketsSent implements audit.GrantAccounting.
func (v ledgerView) DataPacketsSent() int64 {
	var t int64
	for _, in := range v.insts {
		t += in.(audit.GrantAccounting).DataPacketsSent()
	}
	return t
}

// GrantAuthority implements audit.GrantAccounting.
func (v ledgerView) GrantAuthority() int64 {
	var t int64
	for _, in := range v.insts {
		t += in.(audit.GrantAccounting).GrantAuthority()
	}
	return t
}

// globalAuditStack builds the stack object backing the whole-network
// auditor of a sharded run: the global flow list, plus the summed grant
// ledger when every shard instance exposes one (stacks without
// GrantAccounting — DCTCP — skip invariant 4 exactly as they do on a
// single shard).
func globalAuditStack(insts []Instance, flows []*transport.Flow) any {
	for _, in := range insts {
		if _, ok := in.(audit.GrantAccounting); !ok {
			return flowsView{flows}
		}
	}
	return ledgerView{flowsView{flows}, insts}
}

// DefaultStallRTTs is the watchdog window applied when StallRTTs is
// zero: 128 base RTTs, double the 64×RTT cap on the protocols'
// recovery backoff so built-in recovery always gets to act first.
const DefaultStallRTTs = 128

// countOutcome counts responsive flows homed on the given shard that
// are currently in the given state. The home filter makes the per-shard
// counters sum to the global figure (a cross-shard flow is listed by
// both its sender's and its receiver's instance).
func countOutcome(inst Instance, shard int, o transport.Outcome) int64 {
	var n int64
	for _, f := range inst.OrderedFlows() {
		if int(f.Home) == shard && !f.Unresponsive && f.Outcome == o {
			n++
		}
	}
	return n
}

// backloggedTime returns the total length of the union of the flows'
// active intervals [Start, End) (End = horizon for incomplete flows).
func backloggedTime(flows []*transport.Flow, horizon sim.Time) sim.Time {
	if len(flows) == 0 {
		return 0
	}
	type iv struct{ s, e sim.Time }
	ivs := make([]iv, 0, len(flows))
	for _, f := range flows {
		end := horizon
		if f.Done {
			end = f.End
		}
		if end > f.Start {
			ivs = append(ivs, iv{f.Start, end})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })
	var total, curS, curE sim.Time
	started := false
	for _, x := range ivs {
		if !started {
			curS, curE, started = x.s, x.e, true
			continue
		}
		if x.s <= curE {
			if x.e > curE {
				curE = x.e
			}
			continue
		}
		total += curE - curS
		curS, curE = x.s, x.e
	}
	if started {
		total += curE - curS
	}
	return total
}

func trimCount(sw *netsim.Switch) int64 {
	var n int64
	for _, p := range sw.Ports() {
		q := p.Queue()
		// Peel off loss-injection wrappers to reach the trimming queue.
	unwrap:
		for {
			switch w := q.(type) {
			case *netsim.LossyQueue:
				q = w.Inner
			case *netsim.GilbertElliottQueue:
				q = w.Inner
			default:
				break unwrap
			}
		}
		if tq, ok := q.(*netsim.TrimmingQueue); ok {
			n += tq.Trims
		}
	}
	return n
}
