package main

import (
	"fmt"
	"io"
	"math"
	"slices"
)

// verdict is compare's judgement of one workload × end-to-end metric.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegressed  verdict = "regressed"  // B's median is worse than A's by more than the bound
	verdictUnresolved verdict = "unresolved" // a side's runs spread wider than the bound, so the medians decide nothing
)

// row is one line of compare's table.
type row struct {
	workload, metric string
	runsA, runsB     int
	a, b             float64 // medians over each side's runs
	worse            float64 // share of A by which B is worse; negative when better
	spread           float64 // the wider of the two sides' run-to-run spreads, as a share of the median
	bound            float64
	verdict          verdict
}

// minRuns is the fewest timed runs of a workload a side needs: quartiles
// of fewer values say nothing about the run-to-run spread, and without
// the spread no row could ever read unresolved.
const minRuns = 4

// quartileSpread is the distance between the first and third quartile of
// v as a share of its median (quartiles by the exclusive method, as
// Python's statistics.quantiles(v, n=4) gives them). v holds at least
// minRuns values.
func quartileSpread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	q := func(k int) float64 {
		pos := float64(k*(len(s)+1)) / 4
		i := int(pos)
		if i >= len(s) {
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return (q(3) - q(1)) / m
}

// judge compares one metric's two sides, each the metric's value in
// every run of that side. lower says smaller is better.
func judge(a, b []float64, lower bool, bound float64) (worse, spread float64, v verdict) {
	ma, mb := median(a), median(b)
	switch {
	case ma != 0:
		worse = (mb - ma) / ma
	case mb != 0:
		// A zero baseline has no shares: any move away from it is beyond
		// every bound (a count that rises from 0, a first failed operation).
		worse = math.Inf(1)
	}
	better := func(x, y float64) bool { return x < y } // x better than y
	if !lower {
		worse = -worse
		better = func(x, y float64) bool { return x > y }
	}
	spread = max(quartileSpread(a), quartileSpread(b))
	if spread > bound {
		// Too noisy to call, unless every run of B beats every run of A.
		allBetter := true
		for _, y := range b {
			for _, x := range a {
				allBetter = allBetter && better(y, x)
			}
		}
		if allBetter {
			return worse, spread, verdictOK
		}
		return worse, spread, verdictUnresolved
	}
	if worse > bound {
		return worse, spread, verdictRegressed
	}
	return worse, spread, verdictOK
}

// compareFiles judges every workload × end-to-end metric present in
// both files' timed runs: the metrics of bf against its bounds, and
// unlistedEndToEnd against unlistedBounds. Each file holds at least minRuns runs
// of a workload (-runs): the medians are compared, and the run-to-run
// spread decides whether the comparison resolves anything.
func compareFiles(a, b resultFile, bf benchmarkFile) ([]row, error) {
	ea, eb := a.Env, b.Env
	ea.Commit, eb.Commit = "", ""
	if ea != eb {
		return nil, fmt.Errorf("environments differ in more than the commit:\n  A: %+v\n  B: %+v", a.Env, b.Env)
	}
	// timed returns a file's timed runs of one workload.
	timed := func(f resultFile, workload string) ([]runResult, error) {
		var out []runResult
		for _, r := range f.Runs {
			if r.Trace != 0 || r.Workload != workload {
				continue
			}
			if !r.Correct {
				return nil, fmt.Errorf("%s, seed %d: the run failed the correctness gate: %v", workload, r.Seed, r.Violations)
			}
			out = append(out, r)
		}
		return out, nil
	}
	// values collects one metric over runs; ok is false when only some of
	// the runs report it.
	values := func(runs []runResult, name string) (out []float64, ok bool) {
		for _, r := range runs {
			if m, reported := r.Metrics[name]; reported {
				out = append(out, m.Value)
			}
		}
		return out, len(out) == 0 || len(out) == len(runs)
	}
	var rows []row
	for _, w := range bf.Workloads {
		ra, err := timed(a, w.Name)
		if err != nil {
			return nil, fmt.Errorf("A: %w", err)
		}
		rb, err := timed(b, w.Name)
		if err != nil {
			return nil, fmt.Errorf("B: %w", err)
		}
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		if len(ra) < minRuns || len(rb) < minRuns {
			return nil, fmt.Errorf("%s: %d and %d timed runs; the run-to-run spread needs at least %d a side (-runs)", w.Name, len(ra), len(rb), minRuns)
		}
		for _, m := range slices.Concat(bf.EndToEnd, unlistedBounds) {
			va, okA := values(ra, m.Name)
			vb, okB := values(rb, m.Name)
			if !okA || !okB || (len(va) == 0) != (len(vb) == 0) {
				return nil, fmt.Errorf("%s: metric %s missing from some timed runs", w.Name, m.Name)
			}
			if len(va) == 0 {
				continue // omitted on this platform, on both sides
			}
			worse, spread, v := judge(va, vb, m.Better == "lower", m.Bound)
			rows = append(rows, row{w.Name, m.Name, len(va), len(vb), median(va), median(vb), worse, spread, m.Bound, v})
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("the files share no timed run of a workload in BENCHMARK.json")
	}
	return rows, nil
}

// compareMain is `bench compare A.json B.json`: exit status 1 when any
// row regressed, 2 when the pair cannot be compared.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare A.json B.json (run from the repository root: bounds come from BENCHMARK.json)")
		return 2
	}
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	var files [2]resultFile
	for i, path := range args {
		if files[i], err = loadResultFile(path); err != nil {
			fmt.Fprintln(stderr, "bench compare:", err)
			return 2
		}
	}
	rows, err := compareFiles(files[0], files[1], bf)
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	code := 0
	fmt.Fprintf(stdout, "%-14s %-18s %5s %14s %14s %8s %8s %6s  %s\n", "workload", "metric", "runs", "A", "B", "worse", "spread", "bound", "verdict")
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-14s %-18s %2d/%-2d %14.4f %14.4f %+7.1f%% %7.1f%% %5.0f%%  %s\n",
			r.workload, r.metric, r.runsA, r.runsB, r.a, r.b, 100*r.worse, 100*r.spread, 100*r.bound, r.verdict)
		if r.verdict == verdictRegressed {
			code = 1
		}
	}
	return code
}
