package main

import (
	"fmt"
	"os"
	"time"

	"github.com/iotbind/iotbind/internal/cloud"
	"github.com/iotbind/iotbind/internal/transport"
	"github.com/iotbind/iotbind/internal/wal"
)

// The rung ladder covers what no decorator can reach: it replays the
// workload's request stream (same seed, so same devices, order and
// values), one goroutine, one request at a time, against each layer's
// public surface from the bottom up. The difference between adjacent
// rungs is what the upper layer adds when nothing contends.
var rungNames = []string{"service", "durable", "node_async", "node_ack", "router", "pipe", "socket"}

const (
	rungService = iota
	rungDurable
	rungNodeAsync
	rungNodeAck
	rungRouter
	rungPipe
	rungSocket
)

// climb measures every rung for per each and returns the mean latency
// per operation in µs, indexed by rung. The four upper rungs run on the
// session's own stack (its fleet must be in its starting state); the
// three lower ones each get a fresh store under scratch.
func (s *session) climb(scratch string, seed int64, per time.Duration) ([]float64, error) {
	w, st := s.w, s.st
	means := make([]float64, len(rungNames))

	// measure runs one rung: warm-up, one window, settle. own says the
	// rung calls into the session's own stack, whose gate counts requests.
	measure := func(rung int, c transport.Cloud, cr creds, own bool) error {
		l := &lane{gen: w.newGen(seed, rungNames[rung], 0, st.ids, cr), cloud: c}
		run, issued := runWindow, (*[numKinds]int)(nil)
		if own {
			run, issued = s.runLanes, &s.issued
		}
		run([]*lane{l}, limit{ops: w.warmup / 10})
		res := run([]*lane{l}, limit{dur: per})
		if err := settle(l, issued); err != nil {
			return fmt.Errorf("rung %s: settle: %w", rungNames[rung], err)
		}
		if l.failed > 0 {
			return fmt.Errorf("rung %s: %d failed ops, first: %w", rungNames[rung], l.failed, l.firstErr)
		}
		means[rung] = meanUS(res.lat)
		return nil
	}

	// fresh measures a rung on a store of its own, provisioned like the
	// stack's.
	fresh := func(rung int, open func(dir string, reg *cloud.Registry) (transport.Cloud, func() error, error)) error {
		dir, err := os.MkdirTemp(scratch, "rung-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		_, reg, err := newFleet(w.fleet)
		if err != nil {
			return err
		}
		c, closeStore, err := open(dir, reg)
		if err != nil {
			return err
		}
		defer closeStore()
		cr, err := enroll(c)
		if err != nil {
			return err
		}
		if err := provision(c, st.ids, cr.owner, w.bound); err != nil {
			return err
		}
		return measure(rung, c, cr, false)
	}

	if err := fresh(rungService, func(_ string, reg *cloud.Registry) (transport.Cloud, func() error, error) {
		svc, err := cloud.NewService(benchDesign(), reg, cloud.WithClock(frozenNow))
		return svc, func() error { return nil }, err
	}); err != nil {
		return nil, err
	}
	if err := fresh(rungDurable, func(dir string, reg *cloud.Registry) (transport.Cloud, func() error, error) {
		d, err := cloud.OpenDurable(dir, benchDesign(), reg, cloud.DurableOptions{
			WAL: wal.Options{Policy: wal.SyncOff}, WALShards: walShards, Clock: frozenNow,
		})
		if err != nil {
			return nil, nil, err
		}
		return d, d.Close, nil
	}); err != nil {
		return nil, err
	}
	if err := fresh(rungNodeAsync, func(dir string, reg *cloud.Registry) (transport.Cloud, func() error, error) {
		n, err := newNode(dir, reg, false)
		if err != nil {
			return nil, nil, err
		}
		return n, n.Close, nil
	}); err != nil {
		return nil, err
	}

	pipe, err := st.server.Pipe(sourceIP)
	if err != nil {
		return nil, err
	}
	defer pipe.Close()
	for i, c := range []transport.Cloud{st.node, st.router, pipe, st.fronts[0]} {
		if err := measure(rungNodeAck+i, c, s.cr, true); err != nil {
			return nil, err
		}
	}
	return means, nil
}
