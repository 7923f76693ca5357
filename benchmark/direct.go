package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"amrt"
	"amrt/internal/experiment"
	"amrt/internal/metrics"
)

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// runState is what a direct run keeps beyond its RunResult.
type runState struct {
	// simDigest covers the simulated results without the metrics dump,
	// so runs with and without a registry compare.
	simDigest string
	dumpBytes int
	counters  map[string]int64
	// hostTxBytes is the bytes every host NIC put on the wire (traced
	// passes only: it needs the built fabric).
	hostTxBytes int64
	panicked    string
}

// directRun runs one simulation through experiment.LeafSpineRun, inside
// an experiment.run span on traced passes, and measures it. With a
// registry attached (by the workload or by v.registry) the merged dump
// is written inside a metrics.dump span and folded into the digest when
// dumpInDigest is set. A panic — the auditor's way of reporting a
// violation — fails the operation instead of the process.
func directRun(v variant, name string, r experiment.LeafSpineRun, dumpInDigest bool) (op opResult) {
	call := v.tr.newCall()
	sp := v.tr.begin("experiment.run", nil, call)
	var tb *tracedBuilder
	if v.tr != nil {
		tb = &tracedBuilder{Builder: r.Topo, tr: v.tr, parent: sp}
		r.Topo = tb
		r.Stack = tracedStack(r.Stack, v.tr, sp)
	}
	if v.registry && r.Metrics == nil {
		r.Metrics = metrics.NewRegistry()
	}
	st := &runState{}
	op = opResult{name: name, extra: st}
	before := mallocs()
	t0 := time.Now()
	defer func() {
		if p := recover(); p != nil {
			st.panicked = fmt.Sprint(p)
			op.digest = "panic"
			sp.end()
		}
	}()
	res, err := r.RunE()
	op.wall = time.Since(t0)
	op.mallocs = mallocs() - before
	sp.end()
	if err != nil {
		st.panicked = err.Error()
		op.digest = "error"
		return op
	}
	op.run = &res
	op.events = res.Events
	st.simDigest = runDigest(res)
	op.digest = st.simDigest
	if res.Metrics != nil {
		ds := v.tr.begin("metrics.dump", nil, call)
		var buf bytes.Buffer
		if err := res.Metrics.WriteJSON(&buf); err != nil {
			st.panicked = "metrics dump: " + err.Error()
		}
		ds.end()
		st.dumpBytes = buf.Len()
		if v.tr != nil {
			// Only the layer metrics read counters; untraced passes do not
			// pay for parsing the dump.
			st.counters = dumpCounters(buf.Bytes())
		}
		if dumpInDigest {
			op.digest = digestOf(st.simDigest, digestOf(buf.String()))
		}
	}
	if tb != nil && tb.built != nil {
		for _, h := range tb.built.Hosts {
			st.hostTxBytes += h.NIC().TxBytes
		}
	}
	// The registry's instruments and the collector reach the whole
	// simulated network; a pass keeps its results, not its networks.
	res.Metrics, res.Collector, res.Outcomes = nil, nil, nil
	return op
}

// dumpCounters reads the counters of a metrics dump.
func dumpCounters(dump []byte) map[string]int64 {
	var d struct {
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
	}
	out := map[string]int64{}
	if json.Unmarshal(dump, &d) != nil {
		return out
	}
	for _, c := range d.Counters {
		out[c.Name] = c.Value
	}
	return out
}

func stateOf(op opResult) *runState {
	st, _ := op.extra.(*runState)
	if st == nil {
		return &runState{}
	}
	return st
}

// runInvariants checks what holds for every seed of a direct run: it
// finished, every flow completed, nothing stalled or was killed, and the
// auditor (when attached) saw no violation.
func runInvariants(op opResult) error {
	st := stateOf(op)
	if st.panicked != "" {
		return fmt.Errorf("run failed: %s", st.panicked)
	}
	r := op.run
	if r == nil {
		return fmt.Errorf("no result")
	}
	if r.Completed != r.Total {
		return fmt.Errorf("%d of %d flows completed", r.Completed, r.Total)
	}
	if r.Stalled != 0 || r.Killed != 0 {
		return fmt.Errorf("stalled=%d killed=%d", r.Stalled, r.Killed)
	}
	if r.AuditViolations != 0 {
		return fmt.Errorf("%d audit violations", r.AuditViolations)
	}
	return nil
}

// toPublic maps a runner result onto amrt.Result, the shape
// amrt.RunContext and amrt.Sweep return.
func toPublic(r experiment.RunResult) amrt.Result {
	return amrt.Result{
		Completed: r.Completed, Total: r.Total,
		AFCT: r.AFCT.Duration(), P99: r.P99.Duration(),
		Utilization: r.Utilization, Drops: r.Drops, Trims: r.Trims, Events: r.Events,
		Stalled: r.Stalled, Killed: r.Killed,
		DeadlineTotal: r.DeadlineTotal, DeadlineMissed: r.DeadlineMissed,
	}
}
