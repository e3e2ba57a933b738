package main

import (
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/iotbind/iotbind/internal/transport"
)

const (
	// windows is how many equal timed windows a run is cut into. Many
	// short ones (0.19 s on the seed commit), because what disturbs a run
	// on a shared host comes in bursts and only ever slows it down: a
	// timing is read off the quietest tenth of the windows (bestDecile), a
	// count off their median.
	windows = 80
	// runSeconds is what the windows of a timed run take on the seed
	// commit, and how long a traced run measures. It is run_seconds in
	// BENCHMARK.json and not a setting: a run of another length issues
	// other requests and reads other per-operation counts.
	runSeconds = 15
)

// counters is what the process has consumed so far, read at window
// boundaries only.
type counters struct {
	user, sys   time.Duration
	volCtx      int64
	mallocs     uint64
	allocBytes  uint64
	gcCycles    uint32
	rw          int64 // read+write syscalls; -1 where /proc/self/io is missing
	heapLive    uint64
	maxRSSBytes int64
}

func readCounters() counters {
	var c counters
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.user = time.Duration(ru.Utime.Nano())
		c.sys = time.Duration(ru.Stime.Nano())
		c.volCtx = int64(ru.Nvcsw)
		c.maxRSSBytes = int64(ru.Maxrss)
		if runtime.GOOS == "linux" {
			c.maxRSSBytes *= 1024 // Linux reports KiB, the BSDs bytes
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocBytes, c.gcCycles, c.heapLive = ms.Mallocs, ms.TotalAlloc, ms.NumGC, ms.HeapAlloc
	c.rw = readRWSyscalls()
	return c
}

// readRWSyscalls returns syscr+syscw from /proc/self/io, or -1 where
// the file does not exist (anything but Linux).
func readRWSyscalls() int64 {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return -1
	}
	var total int64
	for _, line := range strings.Split(string(data), "\n") {
		name, val, ok := strings.Cut(line, ": ")
		if ok && (name == "syscr" || name == "syscw") {
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return -1
			}
			total += n
		}
	}
	return total
}

// rwSelf is what one readRWSyscalls adds to the next one's reading: the
// meter's own reads of /proc/self/io.
var rwSelf = func() int64 {
	a := readRWSyscalls()
	return readRWSyscalls() - a
}()

// rwPerOp is the window's read and write syscalls per operation, the
// meter's own aside.
func rwPerOp(w windowResult) float64 {
	return perOp(float64(w.after.rw-w.before.rw-rwSelf), w)
}

// limit ends a window after ops operations (over all lanes) or after
// dur, whichever is set.
type limit struct {
	ops int
	dur time.Duration
}

// sample is one operation's latency.
type sample struct {
	ns   uint32
	kind opKind
}

// lane is one connection of the closed loop: a generator, the cloud it
// calls, and the samples of the window in progress.
type lane struct {
	gen      generator
	cloud    transport.Cloud
	samples  []sample
	failed   int
	firstErr error
}

// maxLaneFailures stops a lane whose requests keep failing: the run is
// already incorrect, and a stream of refusals is not a measurement.
const maxLaneFailures = 100

// drive runs the lane's closed loop: the next request leaves when the
// previous reply has arrived, so one request is in flight. A failed
// operation is counted and contributes no latency sample.
func (l *lane) drive(ops int, deadline time.Time) {
	l.samples = l.samples[:0]
	prev := time.Now()
	for n := 0; ops == 0 || n < ops; n++ {
		kind, err := l.gen.next(l.cloud)
		now := time.Now()
		if err != nil {
			if l.failed++; l.firstErr == nil {
				l.firstErr = err
			}
			if l.failed >= maxLaneFailures {
				return
			}
		} else {
			l.samples = append(l.samples, sample{ns: uint32(now.Sub(prev)), kind: kind})
		}
		if !deadline.IsZero() && !now.Before(deadline) {
			return
		}
		prev = now
	}
}

// windowResult is one window of the closed loop over all lanes.
type windowResult struct {
	wall   time.Duration
	ops    int // successful
	failed int
	lat    []uint32           // sorted latencies of the successful ops
	byKind [numKinds][]uint32 // the same, sorted, per kind
	before counters
	after  counters
}

// settle issues, untimed, the requests that bring the lane's devices
// back to their starting state, counting them into issued when set.
func settle(l *lane, issued *[numKinds]int) error {
	for !l.gen.atStart() {
		kind, err := l.gen.next(l.cloud)
		if err != nil {
			return err
		}
		if issued != nil {
			issued[kind]++
		}
	}
	return nil
}

// runWindow releases every lane at once, waits for all of them and
// reads the process counters on either side. A zero limit runs nothing.
func runWindow(lanes []*lane, lim limit) windowResult {
	if lim == (limit{}) {
		return windowResult{}
	}
	perLane := (lim.ops + len(lanes) - 1) / len(lanes)
	failedBefore := 0
	for _, l := range lanes {
		failedBefore += l.failed
	}
	runtime.GC()
	var res windowResult
	var wg sync.WaitGroup
	res.before = readCounters()
	start := time.Now()
	var deadline time.Time
	if lim.dur > 0 {
		deadline = start.Add(lim.dur)
	}
	for _, l := range lanes {
		wg.Add(1)
		go func(l *lane) {
			defer wg.Done()
			l.drive(perLane, deadline)
		}(l)
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.after = readCounters()
	for _, l := range lanes {
		res.failed += l.failed
		res.ops += len(l.samples)
		for _, s := range l.samples {
			res.lat = append(res.lat, s.ns)
			res.byKind[s.kind] = append(res.byKind[s.kind], s.ns)
		}
	}
	res.failed -= failedBefore
	slices.Sort(res.lat)
	for k := range res.byKind {
		slices.Sort(res.byKind[k])
	}
	return res
}

// quantileUS reads quantile q from sorted nanosecond latencies, in µs.
func quantileUS(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / 1e3
}

func meanUS(v []uint32) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum uint64
	for _, x := range v {
		sum += uint64(x)
	}
	return float64(sum) / float64(len(v)) / 1e3
}

// bestDecile returns the value a tenth of the way into v from its
// better end (lower says which), between the two nearest windows.
func bestDecile(v []float64, lower bool) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if !lower {
		slices.Reverse(s)
	}
	pos := 0.1 * float64(len(s)-1)
	i := int(pos)
	if i+1 == len(s) {
		return s[i]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
