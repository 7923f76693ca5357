package main

import (
	"encoding/json"
	"os"
	"testing"

	"amrt"
)

// smallRun runs one workload at the self-test input size.
func smallRun(t *testing.T, workload string, seed int64, traced bool, pins pinTable) (report, runInfo) {
	t.Helper()
	rep, info, err := run(config{
		workload: workload, seed: seed, seconds: 0.2, traced: traced,
		small: true, workDir: t.TempDir(), pins: pins,
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return rep, info
}

func embedded(t *testing.T) pinTable {
	t.Helper()
	pins, err := loadPins(embeddedPins)
	if err != nil {
		t.Fatal(err)
	}
	return pins
}

// TestWorkloadsPassTheirChecks runs every workload small, untraced and
// traced, against the recorded pins: every check must pass and the report
// must carry exactly the metrics BENCHMARK.json names.
func TestWorkloadsPassTheirChecks(t *testing.T) {
	e2e, layer := contractMetrics(t)
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			rep, info := smallRun(t, w, defaultSeed, false, embedded(t))
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("untraced: correct=%v attempted=%d failed=%d: %v", rep.Correct, rep.Attempted, rep.Failed, info.problems)
			}
			if info.Pin != "pinned" {
				t.Errorf("pin status %q, want pinned (re-record pins.json)", info.Pin)
			}
			checkMetrics(t, rep, e2e, true)

			rep, info = smallRun(t, w, defaultSeed, true, embedded(t))
			if !rep.Correct || rep.Failed != 0 {
				t.Fatalf("traced: correct=%v failed=%d: %v", rep.Correct, rep.Failed, info.problems)
			}
			checkMetrics(t, rep, layer, false)
		})
	}
}

// TestUnpinnedSeedRunsReferenceChecks runs a seed without a pin: the
// every-seed checks and the single-engine reference still apply.
func TestUnpinnedSeedRunsReferenceChecks(t *testing.T) {
	rep, info := smallRun(t, "incast-chaos", 5, false, embedded(t))
	if info.Pin != "unpinned-seed" {
		t.Fatalf("pin status %q, want unpinned-seed", info.Pin)
	}
	if !rep.Correct || rep.Failed != 0 {
		t.Fatalf("correct=%v failed=%d: %v", rep.Correct, rep.Failed, info.problems)
	}
}

// TestPerturbedPinFails proves the pin comparison is live: one changed
// digest must surface as a failed operation.
func TestPerturbedPinFails(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			pins := embedded(t)
			p := pins[amrt.SimVersion][pinKey(w, "small", defaultSeed)]
			if p == nil || len(p.Ops) == 0 {
				t.Fatal("no small pin recorded")
			}
			perturbed := *p
			perturbed.Ops = append([]string(nil), p.Ops...)
			perturbed.Ops[0] = "0000000000000000"
			pins[amrt.SimVersion][pinKey(w, "small", defaultSeed)] = &perturbed
			rep, _ := smallRun(t, w, defaultSeed, false, pins)
			if rep.Correct || rep.Failed == 0 {
				t.Fatalf("perturbed pin: correct=%v failed=%d, want a failed operation", rep.Correct, rep.Failed)
			}
		})
	}
}

// TestUnpinnedVersionIsReportedNotFailed covers a SimVersion bump before
// new pins are recorded.
func TestUnpinnedVersionIsReportedNotFailed(t *testing.T) {
	rep, info := smallRun(t, "paper-fct", defaultSeed, false, pinTable{})
	if info.Pin != "unpinned-version" {
		t.Fatalf("pin status %q, want unpinned-version", info.Pin)
	}
	if !rep.Correct {
		t.Fatalf("unpinned version failed: %v", info.problems)
	}
}

func checkMetrics(t *testing.T, rep report, want map[string]string, positive bool) {
	t.Helper()
	if len(rep.Metrics) != len(want) {
		t.Errorf("report has %d metrics, BENCHMARK.json %d", len(rep.Metrics), len(want))
	}
	for name, unit := range want {
		m, ok := rep.Metrics[name]
		if !ok {
			t.Errorf("metric %s missing", name)
			continue
		}
		if m.Unit != unit {
			t.Errorf("metric %s unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
		}
		if positive && !(m.Value > 0) {
			t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
		}
	}
}

// contractMetrics reads the metric names and units from BENCHMARK.json.
func contractMetrics(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range c.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range c.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}
