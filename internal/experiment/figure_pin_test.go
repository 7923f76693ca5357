package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"amrt/internal/stats"
	"amrt/internal/transport"
)

// figurePins are absolute digests of the scenario figures — the §2
// motivation runs, the §7 testbed runs, the ablations and the
// related-work and incast tables — on the single-engine path. Like
// stackPins they were recorded once and must never be edited to make a
// change pass: a refactor that moves any of them is not a pure
// refactor. A deliberate behaviour change bumps SimVersion and
// re-records them in the same commit.
var figurePins = map[string]string{
	"Fig1/pHost":       "be6431fce9ec15333d3a333ec2a19030",
	"Fig1/AMRT":        "8dd743b1b84fe7ec698831aa069ffdd7",
	"Fig2/pHost":       "fd88f177e1a0d0a5ffebce1ba54b845b",
	"Fig2/AMRT":        "90ea4209849605a565dee6380ea3c527",
	"Fig9/AMRT":        "30e7b32de33bee0073af7dae8df78314",
	"Fig11All":         "15c98523d19cc656451dc959233e3d03",
	"MarkingAblation":  "e9acb43b1fe759811d03ff8f94a75ea1",
	"QueueCapAblation": "fb670ccf504bb814eba9b0f2850b4b3a",
	"RelatedWorkTable": "6803455bd5ef46acc00cce8a86166878",
	"IncastTable":      "e8716ecf51bba1c110455f66f42e9dbd",
}

// digestMotivation writes a §2 motivation result: the per-flow series
// in name order, the bottleneck series and the phase table.
func digestMotivation(buf *bytes.Buffer, r MotivationResult) {
	serializeSorted(buf, r.FlowSeries)
	serializeSeries(buf, []*stats.Series{r.Util, r.LinkUtil})
	r.Phases.Fprint(buf)
}

// digestTestbed writes a §7 testbed result: the per-flow series in name
// order, the summary table and each flow's completion.
func digestTestbed(buf *bytes.Buffer, r TestbedResult) {
	fmt.Fprintf(buf, "stack %s\n", r.Stack)
	serializeSorted(buf, r.Series)
	r.Summary.Fprint(buf)
	digestFlows(buf, r.Flows)
}

func digestFlows(buf *bytes.Buffer, flows []*transport.Flow) {
	for _, f := range flows {
		fmt.Fprintf(buf, "flow %d done=%v end=%d\n", f.ID, f.Done, int64(f.End))
	}
}

// figurePinRuns lists the pinned figure outputs by key.
var figurePinRuns = []struct {
	key string
	run func(buf *bytes.Buffer)
}{
	{"Fig1/pHost", func(buf *bytes.Buffer) { digestMotivation(buf, Fig1(MustStack("pHost", StackOptions{}), 1)) }},
	{"Fig1/AMRT", func(buf *bytes.Buffer) { digestMotivation(buf, Fig1(MustStack("AMRT", StackOptions{}), 1)) }},
	{"Fig2/pHost", func(buf *bytes.Buffer) { digestMotivation(buf, Fig2(MustStack("pHost", StackOptions{}), 1)) }},
	{"Fig2/AMRT", func(buf *bytes.Buffer) { digestMotivation(buf, Fig2(MustStack("AMRT", StackOptions{}), 1)) }},
	{"Fig9/AMRT", func(buf *bytes.Buffer) { digestTestbed(buf, Fig9(MustStack("AMRT", StackOptions{}), 1)) }},
	{"Fig11All", func(buf *bytes.Buffer) {
		results, cmp := Fig11All(1)
		for _, r := range results {
			digestTestbed(buf, r)
		}
		cmp.Fprint(buf)
	}},
	{"MarkingAblation", func(buf *bytes.Buffer) { MarkingAblation().Fprint(buf) }},
	{"QueueCapAblation", func(buf *bytes.Buffer) { QueueCapAblation().Fprint(buf) }},
	{"RelatedWorkTable", func(buf *bytes.Buffer) { RelatedWorkTable().Fprint(buf) }},
	{"IncastTable", func(buf *bytes.Buffer) { IncastTable([]int{4, 8}, 100_000).Fprint(buf) }},
}

// TestFigurePins checks every scenario figure against its recorded
// absolute digest.
func TestFigurePins(t *testing.T) {
	for _, p := range figurePinRuns {
		var buf bytes.Buffer
		p.run(&buf)
		sum := sha256.Sum256(buf.Bytes())
		got := hex.EncodeToString(sum[:16])
		want, ok := figurePins[p.key]
		if !ok {
			t.Errorf("%s: no recorded pin (digest %s)", p.key, got)
			continue
		}
		if got != want {
			t.Errorf("%s: digest %s, pinned %s", p.key, got, want)
		}
	}
}
