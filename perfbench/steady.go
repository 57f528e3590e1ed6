package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// runSteady repeats a workload on consecutive seeds, one process per
// run, and prints each metric's median, quartiles and spread (the
// interquartile distance as a share of the median, with quartiles as
// Python's statistics.quantiles(n=4) computes them).  With -traced it
// also makes one traced run per seed and prints the tracing overhead:
// the traced window's end-to-end median against the untraced one.
func runSteady(args []string) error {
	fs := flag.NewFlagSet("perfbench steady", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload to repeat (empty = all)")
		runs     = fs.Int("runs", 5, "runs per workload, on seeds seed, seed+1, ...")
		seed     = fs.Int64("seed", 1, "first seed")
		seconds  = fs.Int("seconds", 20, "measured window per run")
		traced   = fs.Bool("traced", false, "also make one traced run per seed and report the tracing overhead")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	names := workloadNames()
	if *workload != "" {
		names = []string{*workload}
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for _, name := range names {
		values := map[string][]float64{}
		tracedValues := map[string][]float64{}
		layerValues := map[string][]float64{}
		units := map[string]string{}
		var attempted, failed int64
		for k := 0; k < *runs; k++ {
			s := *seed + int64(k)
			res, _, err := runChild(exe, name, s, *seconds, 0)
			if err != nil {
				return err
			}
			attempted += res.Attempted
			failed += res.Failed
			for m, v := range res.Metrics {
				values[m] = append(values[m], v.Value)
				units[m] = v.Unit
			}
			if *traced {
				tres, e2e, err := runChild(exe, name, s, *seconds, 1)
				if err != nil {
					return err
				}
				for m, v := range e2e {
					tracedValues[m] = append(tracedValues[m], v.Value)
				}
				for m, v := range tres.Metrics {
					layerValues[m] = append(layerValues[m], v.Value)
					units[m] = v.Unit
				}
			}
		}
		fmt.Printf("%s: %d runs, %d operations attempted, %d failed\n", name, *runs, attempted, failed)
		fmt.Printf("  %-22s %12s %12s %12s %8s", "metric", "q1", "median", "q3", "spread")
		if *traced {
			fmt.Printf(" %14s", "trace overhead")
		}
		fmt.Println()
		printSpreads(values, units, tracedValues)
		if len(layerValues) > 0 {
			fmt.Println("  per-layer metrics of the traced runs:")
			printSpreads(layerValues, units, nil)
		}
	}
	return nil
}

// printSpreads prints one line per metric: quartiles, spread, the
// tracing overhead when traced values are given, and every run's value.
func printSpreads(values map[string][]float64, units map[string]string, tracedValues map[string][]float64) {
	keys := make([]string, 0, len(values))
	for m := range values {
		keys = append(keys, m)
	}
	sort.Strings(keys)
	for _, m := range keys {
		q1, med, q3 := quartiles(values[m])
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Printf("  %-22s %12.5g %12.5g %12.5g %7.1f%%", m+" ("+units[m]+")", q1, med, q3, 100*spread)
		if tv := tracedValues[m]; len(tv) > 0 && med != 0 {
			fmt.Printf(" %+13.1f%%", 100*(median(tv)-med)/med)
		}
		fmt.Printf("   runs:")
		for _, v := range values[m] {
			fmt.Printf(" %.4g", v)
		}
		fmt.Println()
	}
}

// runChild runs one benchmark process and returns its result line and,
// for a traced run, the end-to-end figures of its traced window.
func runChild(exe, name string, seed int64, seconds, trace int) (*result, map[string]metric, error) {
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("%s seed %d trace %d: %v\n%s", name, seed, trace, err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, nil, fmt.Errorf("%s seed %d: result line: %v", name, seed, err)
	}
	var e2e map[string]metric
	for _, line := range strings.Split(stderr.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "perfbench-e2e: "); ok {
			if err := json.Unmarshal([]byte(rest), &e2e); err != nil {
				return nil, nil, err
			}
		}
	}
	return &res, e2e, nil
}

// quartiles mirrors Python's statistics.quantiles(data, n=4) with its
// default exclusive method.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := sorted(xs)
	ld := len(d)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}
