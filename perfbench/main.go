// Command perfbench is hyperd's end-to-end and per-layer benchmark.
//
// It drives the real service.Server in-process through its HTTP
// handler (no sockets), configured as hyperd's default flags configure
// it.  solve-cold and twin-hits run in memory, as hyperd does by
// default; stream-journal adds a data directory inside the run
// directory and is crashed and recovered.  Three closed-loop workloads
// (solve-cold, twin-hits, stream-journal) each run whole rounds of a
// seeded operation list for the given number of seconds, check every
// answer with the benchmark's own schedule parser, cost formula and the
// reference DP, and print one JSON result line.  See README.md.
//
//	perfbench --workload solve-cold --seed 1 --seconds 20 --trace 0
//	perfbench steady --workload twin-hits --runs 5 --seed 1 --seconds 20
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/durable"
	_ "repro/internal/solve/solvers"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		if err := runSteady(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench steady:", err)
			os.Exit(1)
		}
		return
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed     = fs.Int64("seed", 1, "workload seed (inputs are a pure function of it)")
		seconds  = fs.Int("seconds", 20, "measured window in seconds")
		trace    = fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		outDir   = fs.String("out", ".bench_build/runs", "directory for data dirs, spans and optima")
		variant  = fs.String("variant", "", "reference-figure variant, never gated: workers0 (solves at the default worker count), nopruning (sessions with disable_pruning), fsync-always (stream-journal's WAL on hyperd's default fsync policy)")
	)
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	switch *variant {
	case "":
	case "workers0":
		beamOpts.Workers, exactOpts.Workers, sessionOpts.Workers = 0, 0, 0
	case "nopruning":
		sessionOpts.DisablePruning = true
	case "fsync-always":
		fsyncPolicy = durable.FsyncAlways
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown variant %q\n", *variant)
		os.Exit(2)
	}
	res, err := run(*workload, *seed, *seconds, *trace == 1, *outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one workload and returns its result: the end-to-end
// metrics untraced, the per-layer metrics traced.
func run(name string, seed int64, seconds int, traced bool, outDir string) (*result, error) {
	w, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(workloadNames(), ", "))
	}
	if seconds < 1 {
		return nil, fmt.Errorf("seconds must be positive, got %d", seconds)
	}
	mode := "e2e"
	if traced {
		mode = "trace"
	}
	dir, err := filepath.Abs(filepath.Join(outDir, fmt.Sprintf("%s-seed%d-%s-%d", name, seed, mode, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// Data directories are scratch; spans, per-layer summaries and
	// optima stay beside them for inspection.
	defer func() {
		entries, _ := os.ReadDir(dir)
		for _, e := range entries {
			if e.IsDir() {
				os.RemoveAll(filepath.Join(dir, e.Name()))
			}
		}
	}()
	b := &bench{w: w, seed: seed, seconds: seconds, dir: dir}
	if traced {
		b.tr = &tracer{}
	}
	return b.run()
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// median and quantile helpers over a copy of the samples.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the nearest-rank q-quantile of sorted samples.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	k := int(q*float64(len(s))+0.5) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

func median(xs []float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
