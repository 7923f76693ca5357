package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"amrt"
	"amrt/internal/experiment"
)

func digestOf(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// resultLine canonicalizes the simulated outputs amrt.Result carries,
// with floats in their exact binary form.
func resultLine(r amrt.Result) string {
	return fmt.Sprintf("completed=%d total=%d afct=%d p99=%d util=%s drops=%d trims=%d events=%d stalled=%d killed=%d deadline=%d/%d",
		r.Completed, r.Total, int64(r.AFCT), int64(r.P99),
		strconv.FormatFloat(r.Utilization, 'x', -1, 64), r.Drops, r.Trims, r.Events,
		r.Stalled, r.Killed, r.DeadlineTotal, r.DeadlineMissed)
}

// publicDigest digests a result of amrt.RunContext or amrt.Sweep.
func publicDigest(r amrt.Result) string { return digestOf(resultLine(r)) }

// runDigest digests a runner result: what amrt.Result carries plus the
// stack and the deepest monitored queue.
func runDigest(r experiment.RunResult) string {
	return digestOf(r.Stack, "maxq="+strconv.Itoa(r.MaxQueue), resultLine(toPublic(r)))
}

// pin is the recorded result of one workload at one size and seed: the
// digest of each timed operation, in pass order.
type pin struct {
	Digest string   `json:"digest"`
	Ops    []string `json:"ops"`
}

// pinTable maps SimVersion → "workload/size/seed" → pin.
type pinTable map[string]map[string]*pin

//go:embed pins.json
var embeddedPins []byte

func loadPins(data []byte) (pinTable, error) {
	var t pinTable
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("parsing pins.json: %w", err)
	}
	return t, nil
}

func pinKey(workload, size string, seed int64) string {
	return workload + "/" + size + "/" + strconv.FormatInt(seed, 10)
}

// lookup returns the pin for the run and a one-word status for the
// report: "pinned", "unpinned-seed" (pins exist only for the default
// seed), or "unpinned-version" (no pins for this SimVersion; reported,
// not failed).
func (t pinTable) lookup(version, workload, size string, seed int64) (*pin, string) {
	byKey, ok := t[version]
	if !ok {
		return nil, "unpinned-version"
	}
	p, ok := byKey[pinKey(workload, size, seed)]
	if !ok {
		return nil, "unpinned-seed"
	}
	return p, "pinned"
}

// recordPinFile runs the workload's reference pass for the default seed
// and writes its digests into the pin file under the current SimVersion.
func recordPinFile(cfg config, path string) error {
	if cfg.seed != defaultSeed {
		return fmt.Errorf("pins are recorded for the default seed %d only", defaultSeed)
	}
	w := newWorkload(cfg.workload)
	b, cleanup, err := newBench(cfg)
	if err != nil {
		return err
	}
	defer cleanup()
	if err := w.setup(b); err != nil {
		return err
	}
	p, err := b.timedPass(w, variant{shards: 1})
	if err != nil {
		return err
	}
	for _, op := range p.ops {
		if err := w.invariants(op); err != nil {
			return fmt.Errorf("refusing to pin a failing result: %s: %w", op.name, err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	t, err := loadPins(data)
	if err != nil {
		return err
	}
	if t == nil {
		t = pinTable{}
	}
	if t[amrt.SimVersion] == nil {
		t[amrt.SimVersion] = map[string]*pin{}
	}
	rec := &pin{Digest: p.digest()}
	for _, op := range p.ops {
		rec.Ops = append(rec.Ops, op.digest)
	}
	t[amrt.SimVersion][pinKey(cfg.workload, sizeName(cfg.small), cfg.seed)] = rec
	out, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("%s %s %s\n", amrt.SimVersion, pinKey(cfg.workload, sizeName(cfg.small), cfg.seed), strings.Join(rec.Ops, " "))
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
