// Command amrt-bench is the repository benchmark. It drives the simulator
// through its public entry points on three workloads (paper-fct,
// incast-chaos, fabric-campaign), checks that the simulated results are
// the pinned ones, and prints the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run) as one JSON object on the last line of
// standard output. README.md in this directory describes the workloads,
// the metrics and the checks; run.sh builds and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"amrt"
	"amrt/internal/experiment"
	"amrt/internal/sim"
)

// processStart approximates the process start: package variables are
// initialized before main runs. The first set-up pass is timed from here,
// so setup_s includes runtime and flag initialization.
var processStart = time.Now()

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, which keeps a sub-millisecond figure steady across runs.
const setupReps = 51

// defaultSeed is the seed the result pins are recorded for.
const defaultSeed = 1

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	small    bool // reduced input size, for the self-test
	workDir  string
	pins     pinTable
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	cfg, recordPins, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "amrt-bench:", err)
		os.Exit(2)
	}
	if recordPins != "" {
		err = recordPinFile(cfg, recordPins)
	} else {
		err = runAndPrint(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "amrt-bench:", err)
		os.Exit(1)
	}
}

// runAndPrint runs one workload and prints its info line, then its report.
func runAndPrint(cfg config) error {
	rep, info, err := run(cfg)
	if err != nil {
		return err
	}
	for _, p := range info.problems {
		fmt.Fprintln(os.Stderr, "amrt-bench: check failed:", p)
	}
	if err := printJSON(info); err != nil {
		return err
	}
	return printJSON(rep)
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

func parseFlags(args []string) (config, string, error) {
	fs := flag.NewFlagSet("amrt-bench", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload: "+fmt.Sprint(workloadNames()))
	seed := fs.Int64("seed", defaultSeed, "workload seed; the simulator receives only the inputs generated from it")
	seconds := fs.Float64("seconds", 30, "how long the timed portion measures")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	size := fs.String("size", "full", "input size: full, or small for the self-test")
	workDir := fs.String("work-dir", ".bench_build/benchmark", "directory for campaign caches and span dumps")
	record := fs.String("record-pins", "", "record this workload's result pin for the default seed into the given pin file and exit")
	if err := fs.Parse(args); err != nil {
		return config{}, "", err
	}
	if newWorkload(*wl) == nil {
		return config{}, "", fmt.Errorf("unknown workload %q (have %v)", *wl, workloadNames())
	}
	if *trace != 0 && *trace != 1 {
		return config{}, "", fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *size != "full" && *size != "small" {
		return config{}, "", fmt.Errorf("--size must be full or small, got %q", *size)
	}
	if *seconds <= 0 {
		return config{}, "", fmt.Errorf("--seconds must be positive, got %v", *seconds)
	}
	pins, err := loadPins(embeddedPins)
	if err != nil {
		return config{}, "", err
	}
	return config{
		workload: *wl, seed: *seed, seconds: *seconds, traced: *trace == 1,
		small: *size == "small", workDir: *workDir, pins: pins,
	}, *record, nil
}

// runInfo is the line printed before the report: the environment, the
// input, the passes and the result digest. Failed checks go to standard
// error.
type runInfo struct {
	Workload   string    `json:"workload"`
	Seed       int64     `json:"seed"`
	Size       string    `json:"size"`
	Traced     bool      `json:"traced"`
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	SimVersion string    `json:"sim_version"`
	Scheduler  string    `json:"scheduler"`
	Shards     int       `json:"shards"`
	Workers    int       `json:"workers"`
	Input      string    `json:"input"`
	Passes     int       `json:"passes"`
	PassWalls  []float64 `json:"pass_walls_s"`
	Digest     string    `json:"digest"`
	Pin        string    `json:"pin"`
	SpanFile   string    `json:"span_file,omitempty"`
	problems   []string  // printed to standard error
}

// parallelism is the shard and worker count: the CPUs this process may
// use, never more than the machine has.
func parallelism() int {
	n := runtime.NumCPU()
	if g := runtime.GOMAXPROCS(0); g < n {
		n = g
	}
	return n
}

func sizeName(small bool) string {
	if small {
		return "small"
	}
	return "full"
}

// run executes one benchmark invocation: set-up (repeated), the timed
// passes, the checks and, on a traced run, the per-layer measurements.
func run(cfg config) (report, runInfo, error) {
	w := newWorkload(cfg.workload)
	b, cleanup, err := newBench(cfg)
	if err != nil {
		return report{}, runInfo{}, err
	}
	defer cleanup()
	info := runInfo{
		Workload: cfg.workload, Seed: cfg.seed, Size: sizeName(cfg.small), Traced: cfg.traced,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		SimVersion: amrt.SimVersion, Scheduler: sim.DefaultScheduler().String(),
		Shards: b.par, Workers: b.par,
	}
	if cfg.traced {
		b.tr = newTracer()
	}

	setups := make([]float64, setupReps)
	start := processStart
	for i := range setups {
		if err := w.setup(b); err != nil {
			return report{}, info, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		setups[i] = time.Since(start).Seconds()
		start = time.Now()
	}
	info.Input = w.input()

	// On a traced run the first pass is untraced: it is the baseline the
	// tracing overhead is measured against and the digest the traced
	// passes must reproduce.
	var base *pass
	if cfg.traced {
		p, err := b.timedPass(w, variant{})
		if err != nil {
			return report{}, info, err
		}
		base = &p
	}
	passes, err := b.timedLoop(w, variant{tr: b.tr, registry: cfg.traced})
	if err != nil {
		return report{}, info, err
	}
	info.Passes = len(passes)
	for _, p := range passes {
		info.PassWalls = append(info.PassWalls, p.wall.Seconds())
	}
	info.Digest = passes[0].digest()

	pinned := b.checkPasses(w, passes, &info)
	if err := w.checks(b, passes[0], pinned); err != nil {
		return report{}, info, err
	}

	metrics := map[string]metric{}
	if cfg.traced {
		b.check(base.digest() == passes[0].digest(),
			"traced digest %s differs from the untraced %s", passes[0].digest(), base.digest())
		lm, err := b.layerMetrics(w, *base, passes)
		if err != nil {
			return report{}, info, err
		}
		metrics = lm
		path, err := b.tr.write(cfg.workDir, cfg.workload, cfg.seed)
		if err != nil {
			return report{}, info, err
		}
		info.SpanFile = path
	} else {
		walls := make([]float64, len(passes))
		allocs := make([]float64, len(passes))
		for i, p := range passes {
			walls[i] = p.wall.Seconds()
			allocs[i] = float64(p.allocBytes) / 1e6
		}
		metrics["setup_s"] = metric{median(setups), "s"}
		metrics["wall_s"] = metric{median(walls), "s"}
		metrics["alloc_mb"] = metric{median(allocs), "MB"}
		metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	}
	info.problems = b.problems
	return report{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   metrics,
	}, info, nil
}

// newBench prepares a run's state and its private scratch directory under
// the work directory; the returned function removes the directory.
func newBench(cfg config) (*bench, func(), error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, nil, err
	}
	scratch, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		return nil, nil, err
	}
	b := &bench{cfg: cfg, par: parallelism(), scratch: scratch}
	return b, func() { os.RemoveAll(scratch) }, nil
}

// timedLoop runs passes until the next one would end after cfg.seconds;
// at least one pass always runs.
func (b *bench) timedLoop(w benchWorkload, v variant) ([]pass, error) {
	budget := time.Duration(b.cfg.seconds * float64(time.Second))
	t0 := time.Now()
	var passes []pass
	for {
		p, err := b.timedPass(w, v)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		if time.Since(t0)+p.wall > budget {
			return passes, nil
		}
	}
}

// timedPass runs one pass of the workload's timed simulation calls and
// measures its wall time and allocation.
func (b *bench) timedPass(w benchWorkload, v variant) (pass, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	ops, err := w.pass(b, v)
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	if err != nil {
		return pass{}, err
	}
	return pass{ops: ops, wall: wall, allocBytes: after.TotalAlloc - before.TotalAlloc}, nil
}

// checkPasses compares every operation of every pass with the pin for
// this seed and with the first pass. It reports whether a pin applied.
func (b *bench) checkPasses(w benchWorkload, passes []pass, info *runInfo) bool {
	pin, status := b.cfg.pins.lookup(amrt.SimVersion, b.cfg.workload, sizeName(b.cfg.small), b.cfg.seed)
	info.Pin = status
	for pi, p := range passes {
		for i, op := range p.ops {
			ok := true
			var why []string
			if pi > 0 && op.digest != passes[0].ops[i].digest {
				ok = false
				why = append(why, "differs from pass 0")
			}
			if pin != nil {
				if i >= len(pin.Ops) || pin.Ops[i] != op.digest {
					ok = false
					why = append(why, "differs from the pin")
				}
			}
			if err := w.invariants(op); err != nil {
				ok = false
				why = append(why, err.Error())
			}
			b.check(ok, "pass %d op %d (%s): %v", pi, i, op.name, why)
		}
	}
	if pin != nil && len(pin.Ops) != len(passes[0].ops) {
		b.check(false, "pin has %d operations, the pass %d", len(pin.Ops), len(passes[0].ops))
	}
	return pin != nil
}

// bench carries one run's state: configuration, tracer and check tally.
type bench struct {
	cfg config
	par int
	tr  *tracer
	// scratch is this run's private directory under the work directory,
	// removed when the run ends.
	scratch   string
	attempted int
	failed    int
	problems  []string
}

// check records one operation — a timed call with all its checks, or a
// check that is an operation of its own, such as a reference run or a
// cross-check of two entry points — and whether it passed.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// opResult is one timed simulation call: its cost and the digest of its
// simulated outputs.
type opResult struct {
	name   string
	wall   time.Duration
	events uint64
	// mallocs is the process-wide allocation count during the call.
	mallocs uint64
	digest  string

	run   *experiment.RunResult // direct-runner calls
	sweep *amrt.SweepResult     // campaign calls
	// extra is workload-specific state a check or a layer metric reads.
	extra any
}

// pass is one execution of a workload's timed simulation calls.
type pass struct {
	ops        []opResult
	wall       time.Duration
	allocBytes uint64
}

// digest folds the operation digests into the workload's result digest.
func (p pass) digest() string {
	ds := make([]string, len(p.ops))
	for i, op := range p.ops {
		ds[i] = op.digest
	}
	return digestOf(ds...)
}

// variant selects how a pass runs; the zero value is the untraced
// end-to-end configuration.
type variant struct {
	tr        *tracer
	registry  bool // attach a metrics registry where the workload has none
	shards    int  // override the shard count (incast-chaos)
	noAudit   bool // incast-chaos: detach the auditor
	noMetrics bool // incast-chaos: detach the metrics registry
}

// benchWorkload is one benchmark workload.
type benchWorkload interface {
	// setup builds the inputs from the seed; it is repeated and must
	// leave the same inputs each time.
	setup(b *bench) error
	// input states the input size.
	input() string
	// pass runs the timed simulation calls once.
	pass(b *bench, v variant) ([]opResult, error)
	// invariants checks one operation's result for properties that
	// hold for every seed.
	invariants(op opResult) error
	// checks runs the workload's whole-run checks on the first pass. On
	// an unpinned seed it also re-derives the expected result by another
	// path where the workload has one.
	checks(b *bench, p pass, pinned bool) error
	// layers returns the per-layer metrics of a traced run.
	layers(b *bench, base pass, traced []pass) (map[string]float64, error)
}

func workloadNames() []string { return []string{"paper-fct", "incast-chaos", "fabric-campaign"} }

func newWorkload(name string) benchWorkload {
	switch name {
	case "paper-fct":
		return &paperFCT{}
	case "incast-chaos":
		return &incastChaos{}
	case "fabric-campaign":
		return &fabricCampaign{}
	}
	return nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB is the peak resident set of this process in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}
