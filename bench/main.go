// Command bench is the repository's one composed-stack benchmark: it
// builds the real deployment shape in one process from public
// constructors, drives four named workloads through it, checks the
// outputs, and in a separate traced run attributes each request to
// layers. See README.md in this directory.
//
//	go run ./bench -workload keyed_status            # timed run: the end-to-end metrics
//	go run ./bench -workload keyed_status -trace 1   # traced run: the per-layer metrics
//	go run ./bench -all -runs 5 -out set.json        # every workload's timed run, five times
//	go run ./bench compare a.json b.json             # verdict per workload and metric
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"github.com/iotbind/iotbind/internal/binapi"
)

const loadModel = "closed loop: 2 connections, one generator goroutine and one request in flight per connection, " +
	"each connection owning half the fleet; loopback TCP, not a real link; frozen service clock; " +
	"WAL SyncOff with ack-after-replicate"

// environment is everything about a set of runs that a comparison must
// hold equal; compare refuses a pair that differs in anything but
// Commit. (The seed is each run's own.)
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Platform   string `json:"platform"`
	Kernel     string `json:"kernel"`
	ScratchFS  string `json:"scratch_fs"`
	Readiness  string `json:"readiness"`
	LoadModel  string `json:"load_model"`
	Commit     string `json:"commit"`
}

// resultFile is what -out writes and compare reads.
type resultFile struct {
	Env  environment `json:"env"`
	Runs []runResult `json:"runs"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: heartbeat, keyed_status, bind_churn or attack_matrix")
		all     = fs.Bool("all", false, "run every workload")
		trace   = fs.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
		seed    = fs.Int64("seed", 1, "workload seed: device order, idempotency-key prefixes, reading values")
		seconds = fs.Int("seconds", runSeconds, "accepted because the benchmark's driver passes run_seconds; the run length is fixed, any other value is refused")
		out     = fs.String("out", "", "write the results, with their environment, to this file")
		runs    = fs.Int("runs", 1, "repeat each run this many times, on seeds seed, seed+1, ...")
		spans   = fs.String("spans", "", "traced run: write the spans to this file")
		scratch = fs.String("scratch", "", "directory for the WAL directories (default: a temporary one on /dev/shm, else in os.TempDir()); they are removed on exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *all == (*name != "") || *runs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "usage: bench (-workload NAME | -all) [-trace 0|1] [-seed N] [-runs N] [-out FILE] [-spans FILE] [-scratch DIR]")
		fmt.Fprintln(stderr, "       bench compare A.json B.json")
		return 2
	}
	if *seconds != runSeconds {
		fmt.Fprintf(stderr, "bench: the run length is fixed at %d s (run_seconds in BENCHMARK.json), not %d\n", runSeconds, *seconds)
		return 2
	}
	selected := workloads
	if !*all {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}

	dir, cleanup, err := scratchDir(*scratch)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer cleanup()
	file := resultFile{Env: readEnvironment(dir)}
	fmt.Fprintf(stdout, "# %s\n# %+v\n", loadModel, file.Env)
	code := 0
	for i := 0; i < *runs; i++ {
		for _, w := range selected {
			var res runResult
			if *trace == 1 {
				res, err = tracedRun(dir, w, *seed+int64(i), runSeconds*time.Second, *spans)
			} else {
				res, err = timedRun(dir, w, *seed+int64(i))
			}
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			file.Runs = append(file.Runs, res)
			printRun(stdout, res)
			if !res.Correct {
				for _, v := range res.Violations {
					fmt.Fprintf(stderr, "bench: %s: correctness gate: %s\n", w.name, v)
				}
				code = 1
			}
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(*out, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return code
}

// printRun prints every metric of the run by name and unit, then, as
// the last line, the run as one JSON object holding the metrics
// BENCHMARK.json lists for this kind of run.
func printRun(w io.Writer, res runResult) {
	kind, listed, unlisted := "timed", endToEnd, unlistedEndToEnd
	if res.Trace == 1 {
		kind, listed, unlisted = "traced", perLayer, nil
	}
	fmt.Fprintf(w, "\n%s, %s run, seed %d: attempted %d, failed %d, correct %v\n",
		res.Workload, kind, res.Seed, res.Attempted, res.Failed, res.Correct)
	type wire struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]wire, len(listed))
	for i, d := range slices.Concat(listed, unlisted) {
		m, ok := res.Metrics[d.name]
		if !ok {
			fmt.Fprintf(w, "  %-34s %14s %s\n", d.name, "omitted", "(not measurable on this platform)")
			continue
		}
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.name, m.Value, m.Unit)
		if i < len(listed) {
			metrics[d.name] = wire{m.Value, m.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool            `json:"correct"`
		Attempted int             `json:"attempted"`
		Failed    int             `json:"failed"`
		Metrics   map[string]wire `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Fprintf(w, "%s\n", line)
}

// scratchDir returns the directory the WAL directories go under and what
// removes it again. With no -scratch it is a fresh temporary directory on
// tmpfs where there is one; a directory the caller named is created if
// need be and left in place.
func scratchDir(flagValue string) (dir string, cleanup func(), err error) {
	if flagValue != "" {
		return flagValue, func() {}, os.MkdirAll(flagValue, 0o755)
	}
	parent := os.TempDir()
	if fi, err := os.Stat("/dev/shm"); err == nil && fi.IsDir() {
		parent = "/dev/shm"
	}
	dir, err = os.MkdirTemp(parent, "iotbind-bench-")
	return dir, func() { os.RemoveAll(dir) }, err
}

func readEnvironment(scratch string) environment {
	env := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Platform: runtime.GOOS + "/" + runtime.GOARCH, Kernel: "unknown", ScratchFS: filesystemOf(scratch),
		LoadModel: loadModel, Commit: "unknown",
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(data))
	}
	// The readiness source is whatever a default server resolves to here.
	srv := binapi.NewServer(nil)
	env.Readiness = srv.Readiness().String()
	_ = srv.Close() // no connections, nothing to flush
	if rev, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(rev))
	}
	return env
}

// filesystemOf names the filesystem holding dir by its statfs magic.
func filesystemOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	magic := int64(st.Type)
	if runtime.GOOS == "linux" {
		if name, ok := map[int64]string{
			0x01021994: "tmpfs", 0xEF53: "ext4", 0x794c7630: "overlayfs", 0x58465342: "xfs", 0x9123683E: "btrfs",
		}[magic]; ok {
			return name
		}
	}
	return fmt.Sprintf("0x%x", magic)
}

func loadResultFile(path string) (resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Runs) == 0 {
		return f, errors.New(path + ": no runs")
	}
	return f, nil
}
