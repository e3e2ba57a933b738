package main

import (
	"fmt"
	"sync"
	"time"

	"github.com/iotbind/iotbind/internal/cloud"
	"github.com/iotbind/iotbind/internal/transport"
)

// setupReps is how many times a timed run sets the workload up from
// nothing; setup_s is the median, the last set-up is the one measured.
const setupReps = 5

// metric is one reported number. Samples holds the per-window (or
// per-set-up) values the reported median was taken from.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

// runResult is one run of one workload, timed (Trace 0) or traced.
type runResult struct {
	Workload  string            `json:"workload"`
	Trace     int               `json:"trace"`
	Seed      int64             `json:"seed"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Violations lists every correctness-gate failure; empty when Correct.
	Violations []string `json:"violations,omitempty"`
}

func (r *runResult) set(name string, value float64, samples ...float64) {
	r.Metrics[name] = metric{Value: value, Unit: unitOf(name), Samples: samples}
}

func (r *runResult) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// session is one workload set up and ready for timed requests: the
// stack (none for attack_matrix), the enrolled accounts and one lane
// per connection.
type session struct {
	w     workload
	st    *stack
	lanes []*lane
	cr    creds
	// issued counts the requests sent per kind since set-up finished, and
	// base is the primary's activity counters at that moment: the gate
	// checks that the one explains the growth of the other.
	issued [numKinds]int
	base   cloud.Stats
}

// openSession builds the stack, enrolls the accounts, provisions the
// fleet over the closed loop's own connections and warms up. stream
// names the request stream (see workload.newGen).
func openSession(scratch string, w workload, seed int64, stream string, wrap seamWrap) (*session, error) {
	s := &session{w: w}
	if w.fleet == 0 {
		s.lanes = []*lane{{gen: w.newGen(seed, stream, 0, nil, creds{})}}
	} else {
		st, err := newStack(scratch, w.fleet, wrap)
		if err != nil {
			return nil, err
		}
		s.st = st
		if err := s.populate(seed, stream, st.fronts); err != nil {
			st.Close()
			return nil, err
		}
	}
	warm := runWindow(s.lanes, limit{ops: w.warmup})
	if warm.failed > 0 {
		err := fmt.Errorf("%s: warm-up: %d failed ops, first: %w", w.name, warm.failed, s.firstErr())
		s.close()
		return nil, err
	}
	if s.st != nil {
		s.base = s.st.stats()
	}
	return s, nil
}

// populate enrolls the accounts through fronts[0], provisions each
// front's share of the fleet in parallel and builds the lanes.
func (s *session) populate(seed int64, stream string, fronts []transport.Cloud) error {
	cr, err := enroll(fronts[0])
	if err != nil {
		return err
	}
	s.cr = cr
	per := len(s.st.ids) / len(fronts)
	errs := make([]error, len(fronts))
	var wg sync.WaitGroup
	for i, c := range fronts {
		wg.Add(1)
		go func(i int, c transport.Cloud) {
			defer wg.Done()
			errs[i] = provision(c, s.st.ids[i*per:(i+1)*per], cr.owner, s.w.bound)
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for i, c := range fronts {
		s.lanes = append(s.lanes, &lane{gen: s.w.newGen(seed, stream, i, s.st.ids, cr), cloud: c})
	}
	return nil
}

func (s *session) firstErr() error {
	for _, l := range s.lanes {
		if l.firstErr != nil {
			return l.firstErr
		}
	}
	return nil
}

// window runs one window over the session's lanes.
func (s *session) window(lim limit) windowResult { return s.runLanes(s.lanes, lim) }

// runLanes runs one window over lanes that call into the session's
// stack, and keeps count of what they issued.
func (s *session) runLanes(lanes []*lane, lim limit) windowResult {
	res := runWindow(lanes, lim)
	for k := range res.byKind {
		s.issued[k] += len(res.byKind[k])
	}
	return res
}

func (s *session) close() error {
	if s.st == nil {
		return nil
	}
	return s.st.Close()
}

// timedRun measures the end-to-end metrics: setupReps set-ups, then
// `windows` windows of w.windowOps operations over the last one, no
// decorator in the path.
func timedRun(scratch string, w workload, seed int64) (runResult, error) {
	res := runResult{Workload: w.name, Seed: seed, Metrics: map[string]metric{}}
	var (
		s      *session
		setups []float64
		err    error
	)
	for i := 0; i < setupReps; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return res, err
			}
		}
		t0 := time.Now()
		if s, err = openSession(scratch, w, seed, "run", nil); err != nil {
			return res, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer s.close()
	res.set("setup_s", median(setups), setups...)

	// The time limit only keeps a badly regressed commit from running on
	// for ever: four times what the seed commit takes.
	lim := limit{ops: w.windowOps, dur: 4 * runSeconds * time.Second / windows}
	var wins []windowResult
	for i := 0; i < windows; i++ {
		wins = append(wins, s.window(lim))
	}
	res.endToEnd(wins)
	s.gate(&res)
	res.Correct = len(res.Violations) == 0
	return res, nil
}

// perWindow maps each window to a number.
func perWindow(wins []windowResult, f func(windowResult) float64) []float64 {
	out := make([]float64, len(wins))
	for i, w := range wins {
		out[i] = f(w)
	}
	return out
}

func perOp(delta float64, w windowResult) float64 {
	if w.ops == 0 {
		return 0
	}
	return delta / float64(w.ops)
}

// endToEnd fills the end-to-end metrics from the timed windows, as the
// clock and the counters read them: a timing is the quietest tenth of
// the windows (see windows), a count their median.
func (r *runResult) endToEnd(wins []windowResult) {
	for _, w := range wins {
		r.Attempted += w.ops + w.failed
		r.Failed += w.failed
	}
	timing := func(name string, lower bool, f func(windowResult) float64) {
		v := perWindow(wins, f)
		r.set(name, bestDecile(v, lower), v...)
	}
	count := func(name string, f func(windowResult) float64) {
		v := perWindow(wins, f)
		r.set(name, median(v), v...)
	}
	timing("ops_per_s", false, func(w windowResult) float64 { return float64(w.ops) / w.wall.Seconds() })
	timing("p50_us", true, func(w windowResult) float64 { return quantileUS(w.lat, 0.50) })
	timing("cpu_us_per_op", true, func(w windowResult) float64 {
		cpu := (w.after.user - w.before.user) + (w.after.sys - w.before.sys)
		return perOp(float64(cpu.Microseconds()), w)
	})
	count("allocs_per_op", func(w windowResult) float64 {
		return perOp(float64(w.after.mallocs-w.before.mallocs), w)
	})
	if wins[0].before.rw >= 0 { // no /proc/self/io off Linux: omitted, not zero
		count("rw_syscalls_per_op", rwPerOp)
	}
	r.set("fail_ratio", float64(r.Failed)/float64(r.Attempted))
}
