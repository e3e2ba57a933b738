package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"
)

// tracedOps bounds the traced window, and with it the span slice: three
// spans per operation.
const tracedOps = 100_000

// A traced run spends the run's seconds as: refWindows untraced
// reference windows, one traced window, and the seven ladder rungs.
const (
	refWindows  = 3
	refShare    = 0.10 // of the run's duration, per reference window
	tracedShare = 0.15
	rungShare   = 0.07
)

// tracedRun measures the per-layer metrics. It is separate from the
// timed run: nothing it reports is an end-to-end metric. Every
// per-layer metric is reported on every workload; one that the workload
// does not exercise reads 0.
func tracedRun(scratch string, w workload, seed int64, total time.Duration, spansPath string) (runResult, error) {
	res := runResult{Workload: w.name, Trace: 1, Seed: seed, Metrics: map[string]metric{}}
	for _, m := range perLayer {
		res.set(m.name, 0)
	}
	share := func(f float64) time.Duration { return time.Duration(f * float64(total)) }

	// Untraced reference windows, the workload's own load model.
	ref, err := openSession(scratch, w, seed, "ref", nil)
	if err != nil {
		return res, err
	}
	defer ref.close()
	var walBefore uint64
	var wireBefore int64
	if ref.st != nil {
		walBefore, wireBefore = ref.st.node.Primary().AppliedOps(), ref.st.wireBytes()
	}
	var wins []windowResult
	for i := 0; i < refWindows; i++ {
		wins = append(wins, ref.window(limit{dur: share(refShare)}))
	}
	res.loadAndProcess(wins)
	refP50 := res.Metrics["loadgen.p50_us"].Value

	var traced windowResult
	if ref.st == nil {
		// attack_matrix: the spans are the generator's own, around the
		// four public calls; they cost two clock reads per call, always.
		traced = ref.window(limit{dur: share(tracedShare)})
		res.matrixLayers(ref.lanes[0].gen.(*matrixGen))
	} else {
		ops := float64(totalOps(wins))
		res.set("cloud.wal_records_per_op", float64(ref.st.node.Primary().AppliedOps()-walBefore)/ops)
		res.set("binapi.wire_bytes_per_op", float64(ref.st.wireBytes()-wireBefore)/ops)
		res.set("binapi.backpressured", float64(ref.st.server.Backpressured()))
		res.set("binapi.short_writes", float64(ref.st.server.ShortWrites()))
		res.set("binapi.server_goroutines", float64(ref.st.server.Goroutines()))
		res.kindMedians(wins)

		// The ladder needs the fleet back in its starting state.
		for i, l := range ref.lanes {
			if err := settle(l, &ref.issued); err != nil {
				return res, fmt.Errorf("lane %d: settle: %w", i, err)
			}
		}
		rungs, err := ref.climb(scratch, seed, share(rungShare))
		if err != nil {
			return res, err
		}

		// The same workload with a decorator on every seam.
		rec := newRecorder(3*tracedOps + 64)
		tr, err := openSession(scratch, w, seed, "trace", rec.wrap)
		if err != nil {
			return res, err
		}
		defer tr.close()
		rec.on.Store(true)
		traced = tr.window(limit{ops: tracedOps, dur: share(tracedShare)})
		rec.on.Store(false)
		spans := rec.join()
		res.budget(selfTimes(spans), rungs)
		res.set("trace.dropped_spans", float64(rec.dropped))
		if spansPath != "" {
			if err := writeSpans(spansPath, spans); err != nil {
				return res, err
			}
		}
		res.set("cluster.replication_lag_end", float64(tr.st.node.ReplicationLag()))
		tr.gate(&res)
		res.Attempted += traced.ops + traced.failed
		res.Failed += traced.failed
	}
	res.set("trace.overhead_ratio", quantileUS(traced.lat, 0.50)/refP50)

	if err := directLayers(scratch, share(directShare), &res); err != nil {
		return res, err
	}
	ref.gate(&res)
	res.Correct = len(res.Violations) == 0
	return res, nil
}

func totalOps(wins []windowResult) int {
	n := 0
	for _, w := range wins {
		n += w.ops
	}
	return n
}

// wireBytes is what the closed loop's connections have moved, both ways.
func (st *stack) wireBytes() int64 {
	var n int64
	for _, c := range st.socks {
		n += c.BytesIn() + c.BytesOut()
	}
	return n
}

// loadAndProcess fills the load generator's and the process's own
// metrics from the reference windows.
func (r *runResult) loadAndProcess(wins []windowResult) {
	for _, w := range wins {
		r.Attempted += w.ops + w.failed
		r.Failed += w.failed
	}
	med := func(f func(windowResult) float64) float64 { return median(perWindow(wins, f)) }
	rates := perWindow(wins, func(w windowResult) float64 { return float64(w.ops) / w.wall.Seconds() })
	r.set("loadgen.window_spread_ratio", (slices.Max(rates)-slices.Min(rates))/median(rates))
	r.set("loadgen.fail_ratio", float64(r.Failed)/float64(r.Attempted))
	r.set("loadgen.p50_us", med(func(w windowResult) float64 { return quantileUS(w.lat, 0.50) }))
	r.set("loadgen.p99_us", med(func(w windowResult) float64 { return quantileUS(w.lat, 0.99) }))

	r.set("process.sys_cpu_us_per_op", med(func(w windowResult) float64 {
		return perOp(float64((w.after.sys - w.before.sys).Microseconds()), w)
	}))
	r.set("process.vol_ctx_switches_per_op", med(func(w windowResult) float64 {
		return perOp(float64(w.after.volCtx-w.before.volCtx), w)
	}))
	r.set("process.alloc_bytes_per_op", med(func(w windowResult) float64 {
		return perOp(float64(w.after.allocBytes-w.before.allocBytes), w)
	}))
	if wins[0].before.rw >= 0 {
		r.set("process.rw_syscalls_per_op", med(rwPerOp))
	} else {
		delete(r.Metrics, "process.rw_syscalls_per_op") // no /proc/self/io here: omitted, not zero
	}
	last := wins[len(wins)-1].after
	r.set("process.gc_cycles", float64(last.gcCycles-wins[0].before.gcCycles))
	runtime.GC()
	end := readCounters()
	r.set("process.heap_live_mb", float64(end.heapLive)/(1<<20))
	r.set("process.rss_mb", float64(end.maxRSSBytes)/(1<<20))
}

// kindMedians reports the median latency of each step of the bind_churn
// cycle; on the other serving workloads the steps never run and read 0.
func (r *runResult) kindMedians(wins []windowResult) {
	for kind := opBind; kind <= opUnbind; kind++ {
		r.set("cloud."+kindNames[kind]+"_p50_us", median(perWindow(wins, func(w windowResult) float64 {
			return quantileUS(w.byKind[kind], 0.50)
		})))
	}
}

// matrixLayers reports the spans around the four public calls of the
// attack_matrix operation.
func (r *runResult) matrixLayers(g *matrixGen) {
	if g.ops == 0 {
		return
	}
	us := func(d time.Duration) float64 { return d.Seconds() * 1e6 / float64(g.ops) }
	r.set("analysis.predict_us", us(g.predict))
	r.set("modelcheck.check_us", us(g.check))
	r.set("testbed.evaluate_vendors_us", us(g.evaluate))
	r.set("testbed.matrix_cells_matched", float64(g.matched)/float64(g.ops))
	r.set("testbed.matrix_cells_total", float64(g.cells)/float64(g.ops))
}

// budget writes the layer budget: the trace's self times above the node
// seam, the ladder's deltas below it, and how far the two are from
// adding up to the traced end-to-end mean.
func (r *runResult) budget(st seamTimes, rungs []float64) {
	us := func(d time.Duration) float64 { return d.Seconds() * 1e6 }
	r.set("binapi.front_self_us", us(st.frontSelf))
	r.set("cluster.router_self_us", us(st.routerSelf))
	r.set("cluster.node_span_us", us(st.node))

	r.set("cloud.service_us", rungs[rungService])
	r.set("cloud.durable_delta_us", rungs[rungDurable]-rungs[rungService])
	r.set("cluster.node_delta_us", rungs[rungNodeAsync]-rungs[rungDurable])
	r.set("cluster.replicate_delta_us", rungs[rungNodeAck]-rungs[rungNodeAsync])
	r.set("cluster.router_delta_us", rungs[rungRouter]-rungs[rungNodeAck])
	r.set("binapi.pipe_delta_us", rungs[rungPipe]-rungs[rungRouter])
	r.set("binapi.socket_delta_us", rungs[rungSocket]-rungs[rungPipe])

	// Above the node seam the trace attributes; below it the ladder does
	// (its four lowest deltas sum to the node_ack rung). The residual is
	// what the two lanes' contention adds to the node's serial cost.
	sum := us(st.frontSelf) + us(st.routerSelf) + rungs[rungNodeAck]
	e2e := us(st.client)
	r.set("budget.sum_us", sum)
	r.set("budget.e2e_us", e2e)
	if e2e > 0 {
		residual := (e2e - sum) / e2e
		if residual < 0 {
			residual = -residual
		}
		r.set("budget.residual_ratio", residual)
	}
}
