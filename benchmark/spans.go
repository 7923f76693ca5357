package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"amrt/internal/experiment"
	"amrt/internal/netsim"
	"amrt/internal/topo"
	"amrt/internal/transport"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files. Spans of one simulation call share Call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Call   int    `json:"call,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Allocs is the process-wide malloc count during the span, recorded
	// only where a layer metric needs it.
	Allocs uint64 `json:"allocs,omitempty"`

	tr *tracer
}

// tracer keeps spans in memory; write dumps them once at the end. A nil
// tracer records nothing, which is how untraced runs pay no cost.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []*span
	calls int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newCall returns a fresh simulation-call ID.
func (t *tracer) newCall() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.calls++
	return t.calls
}

// begin opens a span under parent (nil for a root) in the given call.
func (t *tracer) begin(name string, parent *span, call int) *span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &span{ID: len(t.spans) + 1, Call: call, Name: name, Start: int64(time.Since(t.t0)), tr: t}
	if parent != nil {
		s.Parent = parent.ID
		if call == 0 {
			s.Call = parent.Call
		}
	}
	t.spans = append(t.spans, s)
	return s
}

// end closes the span.
func (s *span) end() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.End = int64(time.Since(s.tr.t0))
	s.tr.mu.Unlock()
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// named returns the closed spans with the given name, in start order.
func (t *tracer) named(name string) []*span {
	var out []*span
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTime is the total duration of the named spans minus the parts of
// them their child spans cover.
func (t *tracer) selfTime(name string) time.Duration {
	children := map[int][]*span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var total time.Duration
	for _, s := range t.named(name) {
		total += s.dur() - covered(s, children[s.ID])
	}
	return total
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(parent *span, kids []*span) time.Duration {
	type iv struct{ s, e int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		s, e := k.Start, k.End
		if s < parent.Start {
			s = parent.Start
		}
		if e > parent.End {
			e = parent.End
		}
		if e > s {
			ivs = append(ivs, iv{s, e})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })
	var total, cs, ce int64
	for i, x := range ivs {
		if i == 0 || x.s > ce {
			total += ce - cs
			cs, ce = x.s, x.e
			continue
		}
		if x.e > ce {
			ce = x.e
		}
	}
	return time.Duration(total + ce - cs)
}

// write dumps every span as one JSON document and returns its path.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	data, err := json.Marshal(struct {
		Workload string  `json:"workload"`
		Seed     int64   `json:"seed"`
		Spans    []*span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// tracedBuilder wraps the topo.Builder handed to the runner so the fabric
// build shows as a topo.build span inside experiment.run. It keeps the
// built fabric for the layer metrics that read port counters.
type tracedBuilder struct {
	topo.Builder
	tr     *tracer
	parent *span
	built  *topo.Fabric
}

// Build implements topo.Builder.
func (tb *tracedBuilder) Build(ov topo.Overlay) *topo.Fabric {
	s := tb.tr.begin("topo.build", tb.parent, 0)
	before := mallocs()
	tb.built = tb.Builder.Build(ov)
	s.Allocs = mallocs() - before
	s.end()
	return tb.built
}

// tracedStack wraps the stack's constructor so each per-shard instance
// creation shows as a stack.new span inside experiment.run. The instance
// itself is returned unwrapped: the runner, auditor and fault layer
// type-assert optional interfaces on it.
func tracedStack(st experiment.Stack, tr *tracer, parent *span) experiment.Stack {
	if tr == nil {
		return st
	}
	orig := st.New
	st.New = func(net *netsim.Network, base transport.Config) experiment.Instance {
		s := tr.begin("stack.new", parent, 0)
		defer s.end()
		return orig(net, base)
	}
	return st
}
