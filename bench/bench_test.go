package main

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"
)

// small returns the named workload at a fraction of its size: a fleet,
// a warm-up and windows small enough for the tier-1 suite.
func small(t *testing.T, name string) workload {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	w.fleet /= 16
	w.warmup /= 50
	w.windowOps /= 100
	return w
}

// TestWorkloadsPassTheGate runs every workload's timed run end to end
// at small size: every end-to-end metric is reported, the ones
// BENCHMARK.json lists are positive, and the correctness gate (no failures, replica byte-equal, cloud.Stats
// equal to the requests issued, bind_churn devices unbound, matrix
// cells all matching) holds.
func TestWorkloadsPassTheGate(t *testing.T) {
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			res, err := timedRun(t.TempDir(), small(t, def.name), 7)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < windows {
				t.Fatalf("correct=%v attempted=%d failed=%d violations=%v", res.Correct, res.Attempted, res.Failed, res.Violations)
			}
			for _, m := range endToEnd {
				got, ok := res.Metrics[m.name]
				if !ok || got.Value <= 0 || got.Unit != m.unit {
					t.Errorf("%s = %+v (reported: %v), want a positive value in %s", m.name, got, ok, m.unit)
				}
			}
			if got, ok := res.Metrics["p50_us"]; !ok || got.Value <= 0 {
				t.Errorf("p50_us = %+v (reported: %v), want a positive value", got, ok)
			}
			if got, ok := res.Metrics["fail_ratio"]; !ok || got.Value != 0 {
				t.Errorf("fail_ratio = %+v (reported: %v), want 0", got, ok)
			}
			if rw, ok := res.Metrics["rw_syscalls_per_op"]; ok != (runtime.GOOS == "linux") {
				t.Errorf("rw_syscalls_per_op reported: %v on %s", ok, runtime.GOOS)
			} else if ok && (rw.Value > 0) != (def.fleet > 0) {
				t.Errorf("rw_syscalls_per_op = %v: every serving op crosses a socket, attack_matrix none", rw.Value)
			}
		})
	}
}

// TestGateCatchesDivergence: the gate is only worth running if it can
// fail. A request that bypasses the lanes' bookkeeping must show up as a
// cloud.Stats mismatch, and a device left bound as a state violation.
func TestGateCatchesDivergence(t *testing.T) {
	s, err := openSession(t.TempDir(), small(t, "bind_churn"), 1, "run", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	l := s.lanes[0]
	if _, err := l.gen.next(l.cloud); err != nil { // an uncounted bind
		t.Fatal(err)
	}
	l.gen = small(t, "bind_churn").newGen(2, "other", 0, s.st.ids, s.cr) // forget the cycle in progress
	var res runResult
	s.gate(&res)
	joined := strings.Join(res.Violations, "\n")
	for _, want := range []string{"BindsAccepted grew by 1", "ended bound=true"} {
		if !strings.Contains(joined, want) {
			t.Errorf("gate did not report %q; violations:\n%s", want, joined)
		}
	}
}

// TestTracedRunBudget runs the traced run at small size on the workload
// that uses every layer: all per-layer metrics are reported, the layer
// split is the one keyed_status was chosen for, and the budget adds up.
func TestTracedRunBudget(t *testing.T) {
	res, err := tracedRun(t.TempDir(), small(t, "keyed_status"), 3, 1500*time.Millisecond, "")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("violations: %v", res.Violations)
	}
	for _, m := range perLayer {
		if _, ok := res.Metrics[m.name]; !ok {
			t.Errorf("per-layer metric %s not reported", m.name)
		}
	}
	val := func(name string) float64 { return res.Metrics[name].Value }
	if got := val("cloud.wal_records_per_op"); got < 0.99 || got > 1.01 {
		t.Errorf("cloud.wal_records_per_op = %v, want 1: every keyed status is logged", got)
	}
	if val("cluster.replicate_delta_us") <= val("cloud.durable_delta_us") {
		t.Errorf("replication (%v us) should cost more than the durable apply (%v us)",
			val("cluster.replicate_delta_us"), val("cloud.durable_delta_us"))
	}
	// Loose on purpose: the suite may share the machine with other
	// packages' tests, and the seed commit's full-size residual is 0.05.
	if got := val("budget.residual_ratio"); got > 0.5 {
		t.Errorf("budget.residual_ratio = %v: sum %v us vs end to end %v us", got, val("budget.sum_us"), val("budget.e2e_us"))
	}
	if val("trace.dropped_spans") != 0 || val("trace.overhead_ratio") <= 0 {
		t.Errorf("trace: dropped %v spans, overhead ratio %v", val("trace.dropped_spans"), val("trace.overhead_ratio"))
	}
}

// TestJoinLinksUnkeyedRequests: bare heartbeats carry no key, so spans
// join on device ID plus per-device sequence.
func TestJoinLinksUnkeyedRequests(t *testing.T) {
	rec := newRecorder(16)
	rec.on.Store(true)
	t0 := rec.t0
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	// Two requests for dev-a and one for dev-b, innermost span first (the
	// order decorators finish in).
	for _, req := range []struct {
		dev   string
		start int
	}{{"dev-a", 0}, {"dev-b", 100}, {"dev-a", 200}} {
		rec.add(seamNode, opStatus, req.dev, "", at(req.start+20))
		rec.add(seamRouter, opStatus, req.dev, "", at(req.start+10))
		rec.add(seamClient, opStatus, req.dev, "", at(req.start))
	}
	spans := rec.join()
	if len(spans) != 9 {
		t.Fatalf("joined %d spans, want 9", len(spans))
	}
	for i, s := range spans {
		switch s.Name {
		case "client":
			if s.Parent != -1 {
				t.Errorf("client span %d has parent %d", i, s.Parent)
			}
		default:
			if s.Parent < 0 || spans[s.Parent].Request != s.Request {
				t.Errorf("span %d (%s %s) has parent %d", i, s.Name, s.Request, s.Parent)
			}
		}
	}
	if spans[6].Request != "dev-a#2" {
		t.Errorf("second dev-a request identified as %q", spans[6].Request)
	}
	if st := selfTimes(spans); st.requests != 3 {
		t.Errorf("selfTimes saw %d complete requests, want 3", st.requests)
	}
}

func TestCompareVerdicts(t *testing.T) {
	// Two listed metrics; compare adds unlistedBounds' behind them, and
	// leaves out p50_us, which neither side of this test reports.
	bf := benchmarkFile{EndToEnd: []boundedMetric{
		{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.10},
		{Name: "ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.10},
	}}
	bf.Workloads = append(bf.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "heartbeat"})
	steady := []float64{0.99, 1, 1, 1.01, 1}
	noisy := []float64{0.7, 0.9, 1, 1.1, 1.3}
	// file holds one timed run per factor: cpu around cpu, ops around ops,
	// rw syscalls per op exactly rw, no failures.
	file := func(env environment, cpu float64, cpuRuns []float64, ops, rw float64) resultFile {
		f := resultFile{Env: env}
		for i, k := range cpuRuns {
			f.Runs = append(f.Runs, runResult{Workload: "heartbeat", Seed: int64(i), Correct: true, Metrics: map[string]metric{
				"cpu_us_per_op": {Value: cpu * k}, "ops_per_s": {Value: ops * steady[i]},
				"rw_syscalls_per_op": {Value: rw}, "fail_ratio": {Value: 0},
			}})
		}
		return f
	}
	env := environment{NProc: 2, GoVersion: "go1.24.0", Commit: "aaa"}
	other := env
	other.Commit = "bbb" // a different commit still compares

	const ok, regressed, unresolved = verdictOK, verdictRegressed, verdictUnresolved
	for _, tc := range []struct {
		name   string
		baseRW float64
		b      resultFile
		want   [4]verdict // cpu_us_per_op, ops_per_s, rw_syscalls_per_op, fail_ratio
	}{
		{"same", 6, file(other, 104, steady, 980, 6), [4]verdict{ok, ok, ok, ok}},
		{"slower", 6, file(other, 115, steady, 850, 6), [4]verdict{regressed, regressed, ok, ok}},
		{"faster", 6, file(other, 80, steady, 1300, 6), [4]verdict{ok, ok, ok, ok}},
		{"noisy", 6, file(other, 115, noisy, 1000, 6), [4]verdict{unresolved, ok, ok, ok}},
		{"noisy but better in every run", 6, file(other, 60, noisy, 1000, 6), [4]verdict{ok, ok, ok, ok}},
		{"one more syscall per op", 6, file(other, 100, steady, 1000, 7), [4]verdict{ok, ok, regressed, ok}},
		{"a syscall where there was none", 0, file(other, 100, steady, 1000, 0.01), [4]verdict{ok, ok, regressed, ok}},
		{"none where there was none", 0, file(other, 100, steady, 1000, 0), [4]verdict{ok, ok, ok, ok}},
	} {
		rows, err := compareFiles(file(env, 100, steady, 1000, tc.baseRW), tc.b, bf)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(rows) != len(tc.want) {
			t.Fatalf("%s: %d rows, want %d", tc.name, len(rows), len(tc.want))
		}
		for i, r := range rows {
			if r.verdict != tc.want[i] {
				t.Errorf("%s: %s: verdict %s (worse %.3f, spread %.3f), want %s", tc.name, r.metric, r.verdict, r.worse, r.spread, tc.want[i])
			}
		}
	}

	base := file(env, 100, steady, 1000, 6)
	for name, b := range map[string]resultFile{
		"too few runs to know the spread": file(other, 100, steady[:minRuns-1], 1000, 6),
		"a different Go version":          file(environment{NProc: 2, GoVersion: "go1.25.0"}, 100, steady, 1000, 6),
		"a run that failed the gate": func() resultFile {
			f := file(other, 100, steady, 1000, 6)
			f.Runs[1].Correct = false
			return f
		}(),
		"a metric only some runs report": func() resultFile {
			f := file(other, 100, steady, 1000, 6)
			delete(f.Runs[1].Metrics, "rw_syscalls_per_op")
			return f
		}(),
	} {
		if _, err := compareFiles(base, b, bf); err == nil {
			t.Errorf("compare accepted %s", name)
		}
	}

	// Off Linux no run reports rw_syscalls_per_op: the row is left out.
	noRW := func(f resultFile) resultFile {
		for _, r := range f.Runs {
			delete(r.Metrics, "rw_syscalls_per_op")
		}
		return f
	}
	if rows, err := compareFiles(noRW(file(env, 100, steady, 1000, 6)), noRW(file(other, 100, steady, 1000, 6)), bf); err != nil || len(rows) != 3 {
		t.Errorf("rw_syscalls_per_op omitted on both sides: %d rows, %v", len(rows), err)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{3, 1, 2, 10, 9, 8, 4, 5, 6, 7}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

// TestBenchmarkFileAgrees: BENCHMARK.json names the run length, the
// workloads and the metrics the program reports, with the program's
// units, and bounds every end-to-end metric it lists.
func TestBenchmarkFileAgrees(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != runSeconds {
		t.Errorf("run_seconds is %d in BENCHMARK.json, %d in the program", bf.RunSeconds, runSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := bf.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d is %q (%q) in BENCHMARK.json, %q (%q) in the program", i, got.Name, got.Why, w.name, w.why)
		}
	}
	check := func(kind string, listed []boundedMetric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			m := listed[i]
			if m.Name != d.name || m.Unit != d.unit || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %s in %s", kind, i, m, d.name, d.unit)
			}
			if bounded != (m.Bound > 0) || m.Bound > 0.25 {
				t.Errorf("%s: bound %v", m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)
}

// TestRunMainPrintsTheResultLine drives the command as the driver does
// and checks the last line of its output.
func TestRunMainPrintsTheResultLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := runMain([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 {
		t.Error("unknown workload exited 0")
	}
	if code := runMain([]string{"--workload", "heartbeat", "--seconds", "20"}, &stdout, &stderr); code == 0 {
		t.Error("a run length other than run_seconds exited 0")
	}
	stdout.Reset()
	// The line carries what BENCHMARK.json lists, so not fail_ratio.
	printRun(&stdout, runResult{
		Workload: "heartbeat", Correct: true, Attempted: 10,
		Metrics: map[string]metric{
			"cpu_us_per_op": {Value: 12.5, Unit: "us", Samples: []float64{12, 13}},
			"fail_ratio":    {Value: 0, Unit: "ratio"},
		},
	})
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	want := `{"correct":true,"attempted":10,"failed":0,"metrics":{"cpu_us_per_op":{"value":12.5,"unit":"us"}}}`
	if got := lines[len(lines)-1]; got != want {
		t.Errorf("last line:\n got %s\nwant %s", got, want)
	}
}
