package testbed

import (
	"fmt"
	"net"
	"runtime"
	"sort"
	"time"

	"github.com/iotbind/iotbind/internal/binapi"
	"github.com/iotbind/iotbind/internal/cloud"
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/protocol"
)

// ConnLoadMode selects how connections reach the binapi server.
type ConnLoadMode string

const (
	// ConnLoadPipe uses in-process duplex buffers: zero per-connection
	// goroutines on the server, which is what makes 100k+ concurrent
	// connections in one test process feasible.
	ConnLoadPipe ConnLoadMode = "pipe"
	// ConnLoadSocket uses real loopback TCP sockets — bounded by file
	// descriptors and ephemeral ports, so it runs at thousands scale as
	// an honest-wire smoke next to the pipe-mode headline.
	ConnLoadSocket ConnLoadMode = "socket"
)

// maxSocketConns is the largest socket-mode run: one loopback listener
// serves about this many connections before the ~28k ephemeral-port
// range per (src ip, dst ip, dst port) tuple gets tight. Larger fleets
// run in pipe mode.
const maxSocketConns = 16000

// ConnLoadConfig parameterizes a connection-scale run against the
// binapi front end: many persistent connections, each a registered
// device delivering heartbeats over the multiplexed binary protocol.
type ConnLoadConfig struct {
	// Design is the binding design (default ClusterLabDesign — token-free,
	// so setup per connection is one register status).
	Design core.DesignSpec
	// Conns is the connection count (default 1000). Each connection is
	// its own registered device.
	Conns int
	// MsgsPerConn is the number of timed heartbeats per connection
	// (default 5), sent after an untimed register.
	MsgsPerConn int
	// Mode picks pipe or socket transport (default pipe).
	Mode ConnLoadMode
	// Workers bounds the goroutines driving traffic (default
	// 8×GOMAXPROCS, capped at Conns). All connections stay open for the
	// whole run; Workers only bounds how many have a request in flight.
	Workers int
	// Window is the per-connection credit window the server advertises
	// (default 8 — small, because slot tables are per-connection memory).
	Window int
	// Stripes is the server event-loop stripe count (default GOMAXPROCS).
	Stripes int
	// Readiness selects the server's socket readiness source (default
	// auto: raw epoll on Linux, per-connection pump elsewhere). Pipe
	// mode ignores it. Socket clients dial through a shared
	// ClientPoller whenever the effective source is epoll, so neither
	// side spends a goroutine per connection.
	Readiness binapi.Readiness
}

// ConnLoadResult reports one connection-scale run.
type ConnLoadResult struct {
	// Mode, Conns, Stripes, Window echo the effective configuration.
	Mode    ConnLoadMode
	Conns   int
	Stripes int
	Window  int
	// Messages is the number of timed heartbeats delivered.
	Messages int
	// Elapsed is the wall-clock time of the timed phase.
	Elapsed time.Duration
	// MsgsPerSec is Messages/Elapsed.
	MsgsPerSec float64
	// P50Micros and P99Micros are request round-trip latency
	// percentiles in microseconds over every timed message.
	P50Micros float64
	P99Micros float64
	// BytesPerConn is the mean wire traffic per connection (both
	// directions) across the whole run, including registration.
	BytesPerConn float64
	// Goroutines is the process goroutine count while every connection
	// was open — the stripe-architecture proof: in pipe mode it stays
	// near Workers + Stripes regardless of Conns.
	Goroutines int
	// ServerGoroutines is the server's own accounting (stripes plus
	// pollers plus, in pump mode, one goroutine per connection) at the
	// same instant — the readiness-source proof, independent of how
	// many goroutines the client harness spends.
	ServerGoroutines int
	// Readiness echoes the server's effective readiness source in
	// socket mode ("epoll" or "pump"); empty in pipe mode.
	Readiness string
}

// RunConnLoad opens cfg.Conns persistent binapi connections against one
// cloud, registers a device per connection, then drives MsgsPerConn
// heartbeats per connection and reports throughput, latency percentiles
// and per-connection wire cost. The run fails on the first rejected
// message.
func RunConnLoad(cfg ConnLoadConfig) (ConnLoadResult, error) {
	var res ConnLoadResult
	if cfg.Design.Name == "" {
		cfg.Design = ClusterLabDesign()
	}
	if cfg.Conns <= 0 {
		cfg.Conns = 1000
	}
	if cfg.MsgsPerConn <= 0 {
		cfg.MsgsPerConn = 5
	}
	if cfg.Mode == "" {
		cfg.Mode = ConnLoadPipe
	}
	if cfg.Mode == ConnLoadSocket && cfg.Conns > maxSocketConns {
		return res, fmt.Errorf("testbed: conn load: %d socket connections exceed the single-listener limit of %d (one loopback listener's ephemeral-port range)", cfg.Conns, maxSocketConns)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8 * runtime.GOMAXPROCS(0)
	}
	if cfg.Workers > cfg.Conns {
		cfg.Workers = cfg.Conns
	}
	if cfg.Window <= 0 {
		cfg.Window = 8
	}
	if cfg.Stripes <= 0 {
		cfg.Stripes = runtime.GOMAXPROCS(0)
	}

	clock := &Clock{t: labEpoch}
	ids, registry, err := newFleet(cfg.Conns, cfg.Design.Name)
	if err != nil {
		return res, fmt.Errorf("testbed: conn load: %w", err)
	}
	svc, err := cloud.NewService(cfg.Design, registry, cloud.WithClock(clock.Now))
	if err != nil {
		return res, fmt.Errorf("testbed: conn load: %w", err)
	}

	srv := binapi.NewServer(svc,
		binapi.WithWindow(cfg.Window), binapi.WithStripes(cfg.Stripes),
		binapi.WithReadiness(cfg.Readiness))
	defer srv.Close()

	var dial func(i int) (*binapi.Client, error)
	switch cfg.Mode {
	case ConnLoadPipe:
		dial = func(i int) (*binapi.Client, error) {
			return srv.Pipe(fmt.Sprintf("10.%d.%d.%d", (i>>16)&0xff, (i>>8)&0xff, i&0xff))
		}
	case ConnLoadSocket:
		if need := 2*cfg.Conns + 512; !EnsureFDLimit(need) {
			return res, fmt.Errorf("testbed: conn load: cannot raise fd limit to %d (ulimit -n)", need)
		}
		ln, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			return res, fmt.Errorf("testbed: conn load: listen: %w", lerr)
		}
		go func() { _ = srv.Serve(ln) }()
		addr := ln.Addr().String()
		var cp *binapi.ClientPoller
		if srv.Readiness() == binapi.ReadinessEpoll {
			p, perr := binapi.NewClientPoller()
			if perr != nil {
				return res, fmt.Errorf("testbed: conn load: client poller: %w", perr)
			}
			cp = p
			defer cp.Close()
		}
		dial = func(int) (*binapi.Client, error) {
			if cp != nil {
				return cp.Dial(addr)
			}
			return binapi.Dial(addr)
		}
		res.Readiness = srv.Readiness().String()
	default:
		return res, fmt.Errorf("testbed: conn load: unknown mode %q", cfg.Mode)
	}

	// Open every connection and register its device — untimed setup.
	// Workers share the connection slice; each connection is driven by
	// exactly one worker at a time throughout.
	conns := make([]*binapi.Client, cfg.Conns)
	defer func() {
		for _, c := range conns {
			if c != nil {
				_ = c.Close()
			}
		}
	}()
	if err := fanOut(cfg.Workers, cfg.Conns, func(_, lo, hi int) error {
		for i := lo; i < hi; i++ {
			c, derr := dial(i)
			if derr != nil {
				return fmt.Errorf("dial conn %d: %w", i, derr)
			}
			conns[i] = c
			if _, serr := c.HandleStatus(protocol.StatusRequest{
				Kind: protocol.StatusRegister, DeviceID: ids[i],
				Firmware: "1.0", Model: cfg.Design.Name,
			}); serr != nil {
				return fmt.Errorf("register conn %d: %w", i, serr)
			}
		}
		return nil
	}); err != nil {
		return res, fmt.Errorf("testbed: conn load: %w", err)
	}

	// Every connection is now open and registered; this is the number
	// the stripe architecture is about.
	res.Goroutines = runtime.NumGoroutine()
	res.ServerGoroutines = srv.Goroutines()

	// Timed phase: workers sweep their connection slices round-robin so
	// traffic interleaves across the whole fleet rather than finishing
	// one connection before touching the next.
	lats := make([][]int64, cfg.Workers)
	start := time.Now()
	err = fanOut(cfg.Workers, cfg.Conns, func(w, lo, hi int) error {
		mine := make([]int64, 0, (hi-lo)*cfg.MsgsPerConn)
		for n := 0; n < cfg.MsgsPerConn; n++ {
			for i := lo; i < hi; i++ {
				t0 := time.Now()
				if _, herr := conns[i].HandleStatus(protocol.StatusRequest{
					Kind: protocol.StatusHeartbeat, DeviceID: ids[i],
				}); herr != nil {
					return fmt.Errorf("heartbeat conn %d: %w", i, herr)
				}
				mine = append(mine, time.Since(t0).Microseconds())
			}
		}
		lats[w] = mine
		return nil
	})
	elapsed := time.Since(start)
	if err != nil {
		return res, fmt.Errorf("testbed: conn load: %w", err)
	}

	all := make([]int64, 0, cfg.Conns*cfg.MsgsPerConn)
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	var bytes int64
	for _, c := range conns {
		bytes += c.BytesIn() + c.BytesOut()
	}

	res.Mode = cfg.Mode
	res.Conns = cfg.Conns
	res.Stripes = cfg.Stripes
	res.Window = cfg.Window
	res.Messages = len(all)
	res.Elapsed = elapsed
	if elapsed > 0 {
		res.MsgsPerSec = float64(res.Messages) / elapsed.Seconds()
	}
	if len(all) > 0 {
		res.P50Micros = float64(all[len(all)/2])
		res.P99Micros = float64(all[len(all)*99/100])
	}
	res.BytesPerConn = float64(bytes) / float64(cfg.Conns)
	return res, nil
}
