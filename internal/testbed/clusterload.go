package testbed

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/iotbind/iotbind/internal/cloud"
	"github.com/iotbind/iotbind/internal/cluster"
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/retry"
	"github.com/iotbind/iotbind/internal/transport"
	"github.com/iotbind/iotbind/internal/wal"
)

// ClusterLoadConfig parameterizes a multi-node kill-over run: a device
// fleet partitioned across N cluster nodes by the consistent-hash ring,
// driven through the router by retrying workers while primaries are
// killed and their replicas promoted mid-run.
type ClusterLoadConfig struct {
	// Dir is the root directory; node k's stores live in Dir/node-k.
	Dir string
	// Design is the binding design (default ClusterLabDesign — see its
	// comment for why the cluster harness wants a token-free design).
	Design core.DesignSpec
	// Nodes is the cluster size (default 3).
	Nodes int
	// Devices is the fleet size (default 3 per node).
	Devices int
	// Users is how many accounts own the fleet, round-robin (default 2).
	Users int
	// Heartbeats per device (default 10), all idempotency-keyed so every
	// one is a logged, shipped mutation.
	Heartbeats int
	// ReadingEvery makes every Nth heartbeat carry a sensor reading
	// (0 disables).
	ReadingEvery int
	// Workers bounds concurrent drivers (default 4, capped at Devices).
	Workers int
	// Kills is how many primaries to kill mid-run (nodes 0..Kills-1,
	// spread across the heartbeat phase). Must be <= Nodes.
	Kills int
	// AckAfterReplicate acknowledges a mutation only after its WAL
	// record applied on the replica: kills lose nothing acked, and the
	// run verifies the merged final state byte-identically against a
	// single-node reference. Off, acked-but-unshipped operations die
	// with the killed primary and the state check is skipped (the
	// reference legitimately has operations the cluster lost).
	AckAfterReplicate bool
	// WALShards per store (default 4).
	WALShards int
	// WALPolicy is each store's fsync policy (default wal.SyncOff — the
	// kill model is process loss, not host loss, so the interesting
	// durability bound is replication, not fsync).
	WALPolicy wal.SyncPolicy
}

// ClusterLoadResult reports one kill-over run.
type ClusterLoadResult struct {
	// Messages is the number of status messages delivered, Binds the
	// accepted bindings.
	Messages int
	Binds    int
	// Kills and Promotions count the failovers performed (always equal
	// on success).
	Kills      int
	Promotions int
	// LostAcked is the per-kill count of acknowledged operations the
	// replica never received; MaxLostAcked is its maximum. Zero under
	// ack-after-replicate.
	LostAcked    []uint64
	MaxLostAcked uint64
	// StateVerified reports that the merged cluster state was compared
	// byte-for-byte against the single-node reference (ack-after-
	// replicate runs only).
	StateVerified bool
	// Elapsed covers the traffic phase; MsgsPerSec is Messages/Elapsed.
	Elapsed    time.Duration
	MsgsPerSec float64
}

// ClusterLabDesign is the binding design the cluster harness runs:
// device-ID authentication and device-initiated ACL binding
// authenticated by (UserID, password). Deliberately token-free — a
// token verifies only on the node that issued it, so a token-bearing
// design would pin every user to one node (DESIGN.md §10 documents the
// affinity limitation); credential-carrying binds route anywhere, which
// is what lets a cluster harness compare merged state against one
// reference node.
func ClusterLabDesign() core.DesignSpec {
	return core.DesignSpec{
		Name:                 "cluster-lab",
		DeviceAuth:           core.AuthDevID,
		Binding:              core.BindACLDevice,
		UnbindForms:          []core.UnbindForm{core.UnbindDevIDAlone},
		CheckBoundUserOnBind: true,
	}
}

// RunClusterLoad drives the configured cluster and reports the
// failover outcome. Under AckAfterReplicate the merged final state —
// per-device shadows from each device's ring owner, accounts checked
// identical across nodes — must encode byte-for-byte as a single
// in-memory reference cloud fed the same operations (activity counters
// zeroed on both sides: retries legitimately count wire-level activity
// differently).
func RunClusterLoad(cfg ClusterLoadConfig) (ClusterLoadResult, error) {
	var res ClusterLoadResult
	if cfg.Dir == "" {
		return res, fmt.Errorf("testbed: cluster load: Dir is required")
	}
	if cfg.Design.Name == "" {
		cfg.Design = ClusterLabDesign()
	}
	if cfg.Nodes <= 0 {
		cfg.Nodes = 3
	}
	if cfg.Devices <= 0 {
		cfg.Devices = 3 * cfg.Nodes
	}
	if cfg.Users <= 0 {
		cfg.Users = 2
	}
	if cfg.Heartbeats <= 0 {
		cfg.Heartbeats = 10
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Workers > cfg.Devices {
		cfg.Workers = cfg.Devices
	}
	if cfg.Kills < 0 || cfg.Kills > cfg.Nodes {
		return res, fmt.Errorf("testbed: cluster load: Kills %d outside [0, %d]", cfg.Kills, cfg.Nodes)
	}
	if cfg.WALShards <= 0 {
		cfg.WALShards = 4
	}

	// One frozen clock everywhere (labEpoch), so the merged compare is
	// exact even though cluster and reference apply operations at
	// different wall instants.
	clock := &Clock{t: labEpoch}
	ids, registry, err := newFleet(cfg.Devices, cfg.Design.Name)
	if err != nil {
		return res, fmt.Errorf("testbed: cluster load: %w", err)
	}

	// The cluster: N nodes, each a primary + warm replica pair, behind
	// Switchables so failover is invisible to the router and workers.
	names := make([]string, cfg.Nodes)
	nodes := make([]*cluster.Node, cfg.Nodes)
	members := make(map[string]*transport.Switchable, cfg.Nodes)
	serving := make([]*cloud.Durable, cfg.Nodes) // the store behind each name right now
	for k := range nodes {
		names[k] = fmt.Sprintf("node-%d", k)
		n, err := cluster.NewNode(cluster.NodeConfig{
			Name:              names[k],
			Dir:               filepath.Join(cfg.Dir, names[k]),
			Design:            cfg.Design,
			Registry:          registry,
			Clock:             clock.Now,
			WALShards:         cfg.WALShards,
			WAL:               wal.Options{Policy: cfg.WALPolicy},
			AckAfterReplicate: cfg.AckAfterReplicate,
		})
		if err != nil {
			return res, fmt.Errorf("testbed: cluster load: %w", err)
		}
		defer n.Close()
		nodes[k] = n
		members[names[k]] = transport.NewSwitchable(n)
		serving[k] = n.Primary()
	}
	ring, err := cluster.NewRing(names, 0)
	if err != nil {
		return res, fmt.Errorf("testbed: cluster load: %w", err)
	}
	router, err := cluster.NewRouter(ring, members)
	if err != nil {
		return res, fmt.Errorf("testbed: cluster load: %w", err)
	}
	// The retry wrapper is what carries workers across a failover
	// window: ErrNodeDown and ErrNotPrimary carry no wire code, so the
	// default classifier retries them until the promoted replica is
	// swapped in. The sleep yields instead of waiting — the failover
	// completes in-process, not on a timer.
	front := retry.Wrap(router, retry.Policy{
		MaxAttempts: 200,
		BaseDelay:   time.Microsecond,
		MaxDelay:    time.Millisecond,
		Seed:        1,
		Sleep:       func(time.Duration) { runtime.Gosched() },
	})
	defer front.Close()

	// The single-node reference: an in-memory cloud fed every operation
	// the cluster acknowledges. Same design, same frozen clock, and the
	// same manufacturing registry the nodes already share (read-only once
	// the fleet is built).
	ref, err := cloud.NewService(cfg.Design, registry, cloud.WithClock(clock.Now))
	if err != nil {
		return res, fmt.Errorf("testbed: cluster load: %w", err)
	}
	// both performs one operation on the cluster and, once the cluster
	// acknowledged it, on the reference. refMu serializes reference
	// applies: the reference is thread-safe, but serializing keeps its
	// stats deterministic if a future config compares them; per-device
	// ordering is already guaranteed by each device belonging to one
	// worker.
	var refMu sync.Mutex
	both := func(do func(transport.Cloud) error) error {
		if err := do(front); err != nil {
			return err
		}
		refMu.Lock()
		defer refMu.Unlock()
		if err := do(ref); err != nil {
			return fmt.Errorf("reference: %w", err)
		}
		return nil
	}

	// Accounts exist everywhere before any traffic (and before any kill:
	// a broadcast retried across a failover would hit user-exists on the
	// nodes that already accepted it).
	userOf := func(dev int) (string, string) {
		k := dev % cfg.Users
		return fmt.Sprintf("user-%d@cluster.example", k), fmt.Sprintf("pw-%d", k)
	}
	for k := 0; k < cfg.Users; k++ {
		id, pw := userOf(k)
		if err := both(func(c transport.Cloud) error {
			return c.RegisterUser(protocol.RegisterUserRequest{UserID: id, Password: pw})
		}); err != nil {
			return res, fmt.Errorf("testbed: cluster load: register user: %w", err)
		}
	}

	// Kill schedule: the worker whose heartbeat crosses threshold k
	// performs kill k inline — Kill drains in-flight requests, the
	// replica is promoted and swapped in, and every blocked retry lands
	// on it.
	totalHB := cfg.Devices * cfg.Heartbeats
	var (
		hbCount   atomic.Int64
		killOnce  = make([]sync.Once, cfg.Kills)
		killMu    sync.Mutex
		lostAcked []uint64
	)
	maybeKill := func() error {
		done := hbCount.Add(1)
		for k := 0; k < cfg.Kills; k++ {
			threshold := int64((k + 1) * totalHB / (cfg.Kills + 1))
			if done != threshold {
				continue
			}
			var kerr error
			killOnce[k].Do(func() {
				lost, err := nodes[k].Kill()
				if err != nil {
					kerr = err
					return
				}
				promoted, err := nodes[k].Promote()
				if err != nil {
					kerr = err
					return
				}
				members[names[k]].Swap(promoted)
				killMu.Lock()
				lostAcked = append(lostAcked, lost)
				serving[k] = promoted
				killMu.Unlock()
			})
			if kerr != nil {
				return fmt.Errorf("testbed: cluster load: kill node-%d: %w", k, kerr)
			}
		}
		return nil
	}

	var messages, binds atomic.Int64

	// Phase 1 — registration and binding, before any kill. Setup state
	// is the baseline both modes need on every replica: binds that fail
	// business-wise (unknown account on a freshly promoted replica)
	// would pollute the loss accounting, whose subject is the
	// steady-state traffic below.
	if err := fanOut(cfg.Workers, cfg.Devices, func(_, lo, hi int) error {
		for d := lo; d < hi; d++ {
			id := ids[d]
			user, pw := userOf(d)
			if err := both(func(c transport.Cloud) error {
				if _, err := c.HandleStatus(protocol.StatusRequest{
					Kind: protocol.StatusRegister, DeviceID: id,
					Firmware: "1.0", Model: cfg.Design.Name,
				}); err != nil {
					return fmt.Errorf("register: %w", err)
				}
				_, err := c.HandleBind(protocol.BindRequest{
					DeviceID: id, UserID: user, UserPassword: pw,
					IdempotencyKey: fmt.Sprintf("bind-%d", d),
				})
				return err
			}); err != nil {
				return fmt.Errorf("setup %s: %w", id, err)
			}
			binds.Add(1)
		}
		return nil
	}); err != nil {
		return res, fmt.Errorf("testbed: cluster load: %w", err)
	}
	if !cfg.AckAfterReplicate {
		// Async mode ships the setup baseline once, so a promotion
		// inherits every account and binding and the traffic below keeps
		// flowing; what a kill loses is then purely steady-state traffic
		// acked after this point.
		for k, n := range nodes {
			if err := n.CatchUp(); err != nil {
				return res, fmt.Errorf("testbed: cluster load: baseline ship node-%d: %w", k, err)
			}
		}
	}

	// Phase 2 — steady-state heartbeats with mid-run kills.
	start := time.Now()
	err = fanOut(cfg.Workers, cfg.Devices, func(_, lo, hi int) error {
		for d := lo; d < hi; d++ {
			id := ids[d]
			for n := 0; n < cfg.Heartbeats; n++ {
				req := protocol.StatusRequest{
					Kind: protocol.StatusHeartbeat, DeviceID: id,
					IdempotencyKey: fmt.Sprintf("hb-%d-%d", d, n),
				}
				if cfg.ReadingEvery > 0 && n%cfg.ReadingEvery == 0 {
					req.Readings = []protocol.Reading{{Name: "power_w", Value: float64(n), At: clock.Now()}}
				}
				if err := both(func(c transport.Cloud) error {
					_, err := c.HandleStatus(req)
					return err
				}); err != nil {
					return fmt.Errorf("heartbeat %s/%d: %w", id, n, err)
				}
				messages.Add(1)
				if err := maybeKill(); err != nil {
					return err
				}
			}
		}
		return nil
	})
	res.Elapsed = time.Since(start)
	if err != nil {
		return res, fmt.Errorf("testbed: cluster load: %w", err)
	}

	res.Messages = int(messages.Load())
	res.Binds = int(binds.Load())
	res.Kills = len(lostAcked)
	res.Promotions = len(lostAcked)
	res.LostAcked = lostAcked
	for _, lost := range lostAcked {
		if lost > res.MaxLostAcked {
			res.MaxLostAcked = lost
		}
	}
	if res.Elapsed > 0 {
		res.MsgsPerSec = float64(res.Messages) / res.Elapsed.Seconds()
	}
	if res.Kills != cfg.Kills {
		return res, fmt.Errorf("testbed: cluster load: %d kills fired, want %d (heartbeat thresholds missed)", res.Kills, cfg.Kills)
	}

	if cfg.AckAfterReplicate {
		if res.MaxLostAcked != 0 {
			return res, fmt.Errorf("testbed: cluster load: lost %d acked operations under ack-after-replicate", res.MaxLostAcked)
		}
		if err := compareClusterState(ring, names, serving, ids, ref); err != nil {
			return res, err
		}
		res.StateVerified = true
	}
	return res, nil
}

// compareClusterState builds the merged cluster snapshot — per-device
// shadows from each device's ring owner, accounts from node 0 after
// checking every node agrees — and compares its encoding byte-for-byte
// against the reference's. Stats are zeroed on both sides: retries count
// wire activity differently by design.
func compareClusterState(ring *cluster.Ring, names []string, serving []*cloud.Durable, ids []string, ref *cloud.Service) error {
	snaps := make(map[string]cloud.Snapshot, len(names))
	for k, name := range names {
		snaps[name] = serving[k].Snapshot()
	}
	base := snaps[names[0]]
	for _, name := range names[1:] {
		s := snaps[name]
		if len(s.Accounts) != len(base.Accounts) {
			return fmt.Errorf("testbed: cluster load: %s holds %d accounts, %s holds %d",
				name, len(s.Accounts), names[0], len(base.Accounts))
		}
		for u, h := range base.Accounts {
			if s.Accounts[u] != h {
				return fmt.Errorf("testbed: cluster load: account %s differs between %s and %s", u, names[0], name)
			}
		}
		if len(s.Tokens) != 0 {
			return fmt.Errorf("testbed: cluster load: %s issued %d tokens under a token-free design", name, len(s.Tokens))
		}
	}

	shadowByDevice := make(map[string]cloud.ShadowSnapshot)
	for name, s := range snaps {
		for _, sh := range s.Shadows {
			if owner := ring.Owner(sh.DeviceID); owner != name {
				return fmt.Errorf("testbed: cluster load: %s holds shadow for %s owned by %s", name, sh.DeviceID, owner)
			}
			shadowByDevice[sh.DeviceID] = sh
		}
	}
	merged := base
	merged.Stats = cloud.Stats{}
	merged.Shadows = nil
	sorted := append([]string(nil), ids...)
	sort.Strings(sorted)
	for _, id := range sorted {
		sh, ok := shadowByDevice[id]
		if !ok {
			return fmt.Errorf("testbed: cluster load: no node holds a shadow for %s", id)
		}
		merged.Shadows = append(merged.Shadows, sh)
	}

	refSnap := ref.Snapshot()
	refSnap.Stats = cloud.Stats{}

	var want, got bytes.Buffer
	if err := cloud.EncodeSnapshot(&want, refSnap); err != nil {
		return fmt.Errorf("testbed: cluster load: %w", err)
	}
	if err := cloud.EncodeSnapshot(&got, merged); err != nil {
		return fmt.Errorf("testbed: cluster load: %w", err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		return fmt.Errorf("testbed: cluster load: merged cluster state differs from single-node reference:\nreference:\n%s\nmerged:\n%s",
			want.Bytes(), got.Bytes())
	}
	return nil
}
