package testbed

import (
	"fmt"
	"math"
	"net"
	"net/http"
	"time"

	"github.com/iotbind/iotbind/internal/binapi"
	"github.com/iotbind/iotbind/internal/cloud"
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/device"
	"github.com/iotbind/iotbind/internal/httpapi"
	"github.com/iotbind/iotbind/internal/localnet"
	"github.com/iotbind/iotbind/internal/transport"
)

// FleetFrontEnd selects the wire front end a fleet load run drives.
type FleetFrontEnd string

// The two remote front ends.
const (
	FleetFrontEndHTTP FleetFrontEnd = "http"
	FleetFrontEndBin  FleetFrontEnd = "bin"
)

// FleetLoadConfig parameterizes a status-path load run: a fleet of devices
// each delivering a stream of heartbeats to one cloud through a real
// network front end, per-message or coalesced into StatusBatch frames.
type FleetLoadConfig struct {
	// Design is the vendor design under test. Its device-authentication
	// mode must let a registered device send status messages without extra
	// provisioning (device-ID or public-key auth).
	Design core.DesignSpec
	// Devices is the fleet size.
	Devices int
	// Heartbeats is how many heartbeats each device delivers.
	Heartbeats int
	// BatchSize <= 1 sends each heartbeat as its own wire message; larger
	// values coalesce via device.WithBatching.
	BatchSize int
	// FrontEnd picks the wire protocol (default HTTP).
	FrontEnd FleetFrontEnd
	// Workers bounds the concurrent device drivers (default 4, capped at
	// Devices).
	Workers int
	// ReadingEvery makes every Nth heartbeat of each device carry a
	// sensor reading (0 disables), pushing data-bearing status messages
	// through the load path alongside bare keep-alives.
	ReadingEvery int
	// OnService exposes the freshly built cloud service to the caller
	// before traffic starts. Snapshot-under-load tests use it to capture
	// concurrent snapshots while the fleet is live.
	OnService func(*cloud.Service)
}

// FleetLoadResult reports one load run.
type FleetLoadResult struct {
	// Messages is the number of heartbeats delivered (Devices×Heartbeats).
	Messages int
	// WireCalls is the number of wire round-trips that carried them —
	// equal to Messages per-message, Messages/BatchSize (rounded up per
	// device) when coalescing.
	WireCalls int
	// Elapsed is the wall-clock time of the heartbeat phase (setup and
	// registration excluded).
	Elapsed time.Duration
	// MsgsPerSec is Messages/Elapsed.
	MsgsPerSec float64
}

// RunFleetLoad drives the configured fleet and reports throughput. The
// run fails on the first rejected heartbeat: a load number measured while
// messages were silently bouncing would be meaningless.
func RunFleetLoad(cfg FleetLoadConfig) (FleetLoadResult, error) {
	if cfg.Devices <= 0 {
		cfg.Devices = 1
	}
	if cfg.Heartbeats <= 0 {
		cfg.Heartbeats = 1
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 1
	}
	if cfg.FrontEnd == "" {
		cfg.FrontEnd = FleetFrontEndHTTP
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Workers > cfg.Devices {
		cfg.Workers = cfg.Devices
	}

	clock := &Clock{t: labEpoch}
	ids, registry, err := newFleet(cfg.Devices, cfg.Design.Name)
	if err != nil {
		return FleetLoadResult{}, fmt.Errorf("testbed: fleet load: %w", err)
	}
	svc, err := cloud.NewService(cfg.Design, registry, cloud.WithClock(clock.Now))
	if err != nil {
		return FleetLoadResult{}, fmt.Errorf("testbed: fleet load: %w", err)
	}
	if cfg.OnService != nil {
		cfg.OnService(svc)
	}

	// Stand up the requested front end on a loopback listener.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return FleetLoadResult{}, fmt.Errorf("testbed: fleet load: listen: %w", err)
	}
	var dial func() (transport.Cloud, func(), error)
	switch cfg.FrontEnd {
	case FleetFrontEndHTTP:
		hs := &http.Server{Handler: httpapi.NewServer(svc)}
		go func() { _ = hs.Serve(ln) }()
		defer hs.Close()
		base := "http://" + ln.Addr().String()
		dial = func() (transport.Cloud, func(), error) {
			return httpapi.NewClient(base), func() {}, nil
		}
	case FleetFrontEndBin:
		bs := binapi.NewServer(svc)
		go func() { _ = bs.Serve(ln) }()
		defer bs.Close()
		addr := ln.Addr().String()
		dial = func() (transport.Cloud, func(), error) {
			c, err := binapi.Dial(addr)
			if err != nil {
				return nil, nil, err
			}
			return c, func() { _ = c.Close() }, nil
		}
	default:
		_ = ln.Close()
		return FleetLoadResult{}, fmt.Errorf("testbed: fleet load: unknown front end %q", cfg.FrontEnd)
	}

	// Build and register the fleet before the timed phase. Each device
	// owns its connection so workers never share one serialized client.
	devs := make([]*device.Device, cfg.Devices)
	closers := make([]func(), cfg.Devices)
	defer func() {
		for _, c := range closers {
			if c != nil {
				c()
			}
		}
	}()
	for i, id := range ids {
		cl, closeClient, err := dial()
		if err != nil {
			return FleetLoadResult{}, fmt.Errorf("testbed: fleet load: dial: %w", err)
		}
		closers[i] = closeClient
		opts := []device.Option{device.WithClock(clock.Now)}
		if cfg.BatchSize > 1 {
			opts = append(opts, device.WithBatching(cfg.BatchSize, 0))
		}
		// No source stamping: the wire front end assigns the authoritative
		// source address from the connection.
		dev, err := device.New(device.Config{
			ID:            id,
			FactorySecret: "factory-secret-" + id,
			LocalName:     fmt.Sprintf("fleet-dev-%d", i),
			Model:         cfg.Design.Name,
		}, cfg.Design, cl, opts...)
		if err != nil {
			return FleetLoadResult{}, fmt.Errorf("testbed: fleet load: %w", err)
		}
		if err := dev.Provision(localnet.Provisioning{WiFiSSID: "fleet-lab"}); err != nil {
			return FleetLoadResult{}, fmt.Errorf("testbed: fleet load: register %s: %w", id, err)
		}
		devs[i] = dev
	}

	// Timed phase: workers drive disjoint slices of the fleet.
	start := time.Now()
	err = fanOut(cfg.Workers, cfg.Devices, func(_, lo, hi int) error {
		for _, dev := range devs[lo:hi] {
			for n := 0; n < cfg.Heartbeats; n++ {
				if cfg.ReadingEvery > 0 && n%cfg.ReadingEvery == 0 {
					dev.QueueReading("power_w", float64(n))
				}
				if err := dev.Heartbeat(); err != nil {
					return err
				}
			}
			if err := dev.Flush(); err != nil {
				return err
			}
		}
		return nil
	})
	elapsed := time.Since(start)
	if err != nil {
		return FleetLoadResult{}, fmt.Errorf("testbed: fleet load: %w", err)
	}

	res := FleetLoadResult{
		Messages: cfg.Devices * cfg.Heartbeats,
		Elapsed:  elapsed,
	}
	res.WireCalls = cfg.Devices * int(math.Ceil(float64(cfg.Heartbeats)/float64(cfg.BatchSize)))
	if elapsed > 0 {
		res.MsgsPerSec = float64(res.Messages) / elapsed.Seconds()
	}
	return res, nil
}
