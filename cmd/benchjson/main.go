// Command benchjson converts `go test -bench -benchmem` output into a
// machine-readable JSON file, so benchmark runs can be archived and
// diffed across commits (see BENCH_4.json and EXPERIMENTS.md).
//
// Usage:
//
//	go test -bench=. -benchmem -run='^$' . | benchjson -o BENCH_4.json
//
// With -merge, entries already present in the output file are kept
// unless this run re-measured them, so a partial re-run backfills into
// an archived file instead of truncating it:
//
//	go test -bench=BenchmarkBinStatus ... | benchjson -merge -o BENCH_8.json
//
// Each benchmark line becomes one entry keyed by the benchmark name
// (with the -GOMAXPROCS suffix stripped):
//
//	{"BenchmarkBinStatus/socket": {
//	    "iterations": 10000, "ns_per_op": 10630,
//	    "bytes_per_op": 0, "allocs_per_op": 0,
//	    "metrics": {"msgs/s": 94167}}}
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Entry is one benchmark's parsed result.
type Entry struct {
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// procSuffix is the trailing -N GOMAXPROCS tag Go appends to benchmark
// names; stripping it keeps keys stable across machines.
var procSuffix = regexp.MustCompile(`-\d+$`)

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	mergeOld := flag.Bool("merge", false, "overlay new entries onto an existing -o file instead of replacing it")
	flag.Parse()

	entries, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if len(entries) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	if *mergeOld && *out != "" && *out != "-" {
		entries, err = merge(*out, entries)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
	}

	w := os.Stdout
	if *out != "" && *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	// json.Marshal emits map keys sorted, so the file is deterministic and
	// diffs cleanly across runs.
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(entries); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// merge overlays fresh entries onto the ones already archived in path.
// Keys measured by this run win; keys only in the old file survive, so
// re-running a single benchmark backfills one entry without erasing the
// rest. A missing file is not an error — merge into nothing is a plain
// write.
func merge(path string, fresh map[string]Entry) (map[string]Entry, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return fresh, nil
	}
	if err != nil {
		return nil, err
	}
	old := make(map[string]Entry)
	if err := json.Unmarshal(data, &old); err != nil {
		return nil, fmt.Errorf("merge %s: %w", path, err)
	}
	for name, e := range fresh {
		old[name] = e
	}
	return old, nil
}

// parse extracts benchmark result lines: a Benchmark name, an iteration
// count, then value/unit pairs (ns/op, B/op, allocs/op, and any custom
// ReportMetric units).
func parse(sc *bufio.Scanner) (map[string]Entry, error) {
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	entries := make(map[string]Entry)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		e := Entry{Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				e.NsPerOp = val
			case "B/op":
				e.BytesPerOp = val
			case "allocs/op":
				e.AllocsPerOp = val
			default:
				if e.Metrics == nil {
					e.Metrics = make(map[string]float64)
				}
				e.Metrics[unit] = val
			}
		}
		entries[procSuffix.ReplaceAllString(fields[0], "")] = e
	}
	return entries, sc.Err()
}
