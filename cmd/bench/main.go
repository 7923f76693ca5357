// Command bench is the benchmark-regression harness: it runs the
// internal/benchcases figure benchmarks (the same bodies as `go test
// -bench` at the repo root) with their fixed seeds, records ns/op,
// allocs/op, B/op, and each case's custom metrics (events/sec, figure
// headline numbers), writes BENCH_<date>.json, and compares against the
// most recent previous BENCH_*.json. The comparison warns when a case's
// ns/op or allocs/op regresses by more than -threshold, and fails (exit
// status 1) when a figure canary — any custom metric that is not a
// per-second rate — differs from the previous file in value or presence.
//
// Usage:
//
//	bench                          # run all cases, write BENCH_<today>.json, compare
//	bench -cases 'Fig09|Throughput'
//	bench -threshold 0.05 -strict  # exit non-zero on timing/alloc regression too
//	bench -cpuprofile cpu.pprof -memprofile mem.pprof
//	bench -lint                    # godoc/lint pass over the core packages
//	bench -docscheck               # verify docs/ references real Go identifiers
//
// See docs/PERFORMANCE.md for the workflow.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"amrt/internal/benchcases"
	"amrt/internal/sim"
)

// benchFile is the BENCH_<date>.json schema (docs/PERFORMANCE.md).
type benchFile struct {
	Date      string      `json:"date"`
	Go        string      `json:"go"`
	Scheduler string      `json:"scheduler"`
	CPUs      int         `json:"cpus,omitempty"`
	Cases     []benchCase `json:"cases"`
}

type benchCase struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	var (
		out        = flag.String("out", ".", "directory to read/write BENCH_*.json files in")
		prev       = flag.String("prev", "", "previous BENCH_*.json to compare against (default: newest in -out)")
		threshold  = flag.Float64("threshold", 0.10, "relative regression threshold on ns/op and allocs/op")
		strict     = flag.Bool("strict", false, "exit non-zero if any case regresses beyond -threshold")
		cases      = flag.String("cases", "", "regexp selecting case names (default: all)")
		list       = flag.Bool("list", false, "list case names and exit")
		date       = flag.String("date", "", "date stamp for the output file (default: today, YYYY-MM-DD)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the benchmark run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile taken after the run to this file")
		lint       = flag.Bool("lint", false, "run the exported-identifier doc lint over the core packages and exit")
		docsCheck  = flag.Bool("docscheck", false, "verify that docs/ files reference existing Go identifiers and exit")
	)
	flag.Parse()

	if *lint || *docsCheck {
		code := 0
		if *lint {
			code |= runLint()
		}
		if *docsCheck {
			code |= runDocsCheck()
		}
		os.Exit(code)
	}

	all := benchcases.All()
	if *cases != "" {
		re, err := regexp.Compile(*cases)
		if err != nil {
			fatalf("invalid -cases: %v", err)
		}
		kept := all[:0]
		for _, c := range all {
			if re.MatchString(c.Name) {
				kept = append(kept, c)
			}
		}
		all = kept
	}
	if *list {
		for _, c := range all {
			fmt.Println(c.Name)
		}
		return
	}
	if len(all) == 0 {
		fatalf("no cases match %q", *cases)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatalf("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}

	file := benchFile{Date: *date, Go: runtime.Version(), Scheduler: sim.DefaultScheduler().String(), CPUs: runtime.GOMAXPROCS(0)}
	if file.Date == "" {
		file.Date = time.Now().Format("2006-01-02")
	}
	for _, c := range all {
		fmt.Fprintf(os.Stderr, "running %-40s", c.Name)
		fn := c.Fn
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			fn(b)
		})
		bc := benchCase{
			Name:        c.Name,
			Iterations:  r.N,
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: float64(r.AllocsPerOp()),
			BytesPerOp:  float64(r.AllocedBytesPerOp()),
		}
		if len(r.Extra) > 0 {
			bc.Metrics = make(map[string]float64, len(r.Extra))
			for k, v := range r.Extra {
				bc.Metrics[k] = v
			}
		}
		file.Cases = append(file.Cases, bc)
		fmt.Fprintf(os.Stderr, " %12.0f ns/op %10.0f allocs/op\n", bc.NsPerOp, bc.AllocsPerOp)
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatalf("%v", err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatalf("memprofile: %v", err)
		}
		f.Close()
	}

	outPath := filepath.Join(*out, "BENCH_"+file.Date+".json")
	prevPath := *prev
	if prevPath == "" {
		prevPath = newestBenchFile(*out, outPath)
	}

	buf, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	if err := os.WriteFile(outPath, append(buf, '\n'), 0o644); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("wrote %s\n", outPath)

	if prevPath == "" {
		fmt.Println("no previous BENCH_*.json to compare against")
		return
	}
	regressed, canaryMoved, err := compare(prevPath, file, *threshold)
	if err != nil {
		fatalf("%v", err)
	}
	if canaryMoved || (regressed && *strict) {
		os.Exit(1)
	}
}

// newestBenchFile returns the lexicographically greatest BENCH_*.json in
// dir other than exclude (the file this run writes). Date-stamped names
// sort chronologically.
func newestBenchFile(dir, exclude string) string {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return ""
	}
	sort.Strings(matches)
	for i := len(matches) - 1; i >= 0; i-- {
		if matches[i] != exclude {
			return matches[i]
		}
	}
	return ""
}

// compare prints a per-case delta table against the previous file. It
// reports whether any case's ns/op or allocs/op regressed beyond the
// threshold (advisory: wall clock is noisy) and whether any figure
// canary moved (a broken run: a faster simulator must compute the same
// figures).
func compare(prevPath string, cur benchFile, threshold float64) (regressed, canaryMoved bool, err error) {
	raw, err := os.ReadFile(prevPath)
	if err != nil {
		return false, false, err
	}
	var prev benchFile
	if err := json.Unmarshal(raw, &prev); err != nil {
		return false, false, fmt.Errorf("%s: %v", prevPath, err)
	}
	prevBy := make(map[string]benchCase, len(prev.Cases))
	for _, c := range prev.Cases {
		prevBy[c.Name] = c
	}
	fmt.Printf("comparison vs %s (threshold %.0f%%):\n", prevPath, threshold*100)
	for _, c := range cur.Cases {
		p, ok := prevBy[c.Name]
		if !ok {
			fmt.Printf("  %-40s new case\n", c.Name)
			continue
		}
		dt := rel(c.NsPerOp, p.NsPerOp)
		da := rel(c.AllocsPerOp, p.AllocsPerOp)
		mark := ""
		if dt > threshold || da > threshold {
			mark = "  << REGRESSION"
			regressed = true
		}
		fmt.Printf("  %-40s time %+6.1f%%  allocs %+6.1f%%%s\n", c.Name, dt*100, da*100, mark)
		for _, d := range canaryDiffs(p.Metrics, c.Metrics) {
			fmt.Printf("  %-40s << CANARY %s\n", "", d)
			canaryMoved = true
		}
	}
	if regressed {
		fmt.Fprintf(os.Stderr, "bench: regression beyond %.0f%% detected\n", threshold*100)
	}
	if canaryMoved {
		fmt.Fprintf(os.Stderr, "bench: figure canary changed vs %s\n", prevPath)
	}
	return regressed, canaryMoved, nil
}

// canaryDiffs compares two metric maps exactly on their canary keys —
// every metric except per-second rates, which measure wall clock — and
// describes each key whose value differs or that only one side has.
func canaryDiffs(prev, cur map[string]float64) []string {
	var diffs []string
	for k, pv := range prev {
		if isRate(k) {
			continue
		}
		if cv, ok := cur[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s missing (was %v)", k, pv))
		} else if cv != pv {
			diffs = append(diffs, fmt.Sprintf("%s %v -> %v", k, pv, cv))
		}
	}
	for k, cv := range cur {
		if _, ok := prev[k]; !ok && !isRate(k) {
			diffs = append(diffs, fmt.Sprintf("%s new (%v)", k, cv))
		}
	}
	sort.Strings(diffs)
	return diffs
}

// isRate reports whether a metric unit is a per-second rate such as
// events/s: a wall-clock measurement, not a canary.
func isRate(unit string) bool { return strings.HasSuffix(unit, "/s") }

// rel returns (cur-prev)/prev, or 0 when prev is 0.
func rel(cur, prev float64) float64 {
	if prev == 0 {
		return 0
	}
	return (cur - prev) / prev
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}
