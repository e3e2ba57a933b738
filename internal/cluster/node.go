package cluster

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/iotbind/iotbind/internal/cloud"
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/transport"
	"github.com/iotbind/iotbind/internal/wal"
)

// errNodeDown is returned by a killed node. Like cloud's errNotPrimary it
// carries no protocol wire code, so the retry layer keeps the request
// alive until the router swaps the promoted replica in.
var errNodeDown = errors.New("cluster: node is down")

// NodeConfig configures one cluster node (primary + warm replica).
type NodeConfig struct {
	// Name is the node's ring identity.
	Name string
	// Dir is the node's root; the primary lives in Dir/primary and the
	// replica in Dir/replica.
	Dir string
	// Design and Registry are shared across the fleet — every node
	// enforces the same binding design over the same device population,
	// each serving its ring slice.
	Design   core.DesignSpec
	Registry *cloud.Registry
	// Clock overrides the wall clock (testbeds).
	Clock func() time.Time
	// WALShards and WAL configure both stores' logs identically.
	WALShards int
	WAL       wal.Options
	// AckAfterReplicate ships synchronously: a mutation is acknowledged
	// only once its record is applied on the replica, so a kill loses no
	// acked operation (MaxLostAcked == 0). Off, shipping happens only
	// when something calls CatchUp (and once at NewNode, which ships
	// whatever the primary's files already hold) — acked-but-unshipped
	// records die with the primary's disk.
	AckAfterReplicate bool
}

// Node is one cluster member: a primary Durable serving traffic, a
// follower Durable absorbing its WAL, and the Shipper between them.
// Node itself implements transport.Cloud so the router can treat it as
// a backend; after Kill every call returns errNodeDown until the
// harness promotes the replica and swaps it in.
type Node struct {
	// Hopped serves every operation from the primary between nodeHop's
	// Begin and End.
	transport.Hopped
	name       string
	primaryDir string
	maxRecord  int // WAL record cap, for the kill-time stranded scan
	primary    *cloud.Durable
	replica    *cloud.Durable
	ship       *Shipper
	ackRep     bool

	// opMu is a genuine reader-writer drain: requests hold the read
	// side for their full duration, Kill takes the write side, so a
	// kill observes a quiesced primary and the lost-operation count is
	// exact rather than racing in-flight appends.
	opMu   sync.RWMutex
	killed bool
}

// NewNode opens the node's primary and replica stores. The replica
// inherits the primary's meta.json — same master seed, design and WAL
// shard layout — which is what makes shipped records replay
// byte-identically. Attach order: the shipper first brings the replica
// up to the primary's segment files, then becomes the primary's append
// observer; no request runs in between, so the in-memory feed starts
// exactly where the files ended.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("cluster: node needs a name")
	}
	primaryDir := filepath.Join(cfg.Dir, "primary")
	replicaDir := filepath.Join(cfg.Dir, "replica")
	primary, err := cloud.OpenDurable(primaryDir, cfg.Design, cfg.Registry, cloud.DurableOptions{
		WAL: cfg.WAL, WALShards: cfg.WALShards, Clock: cfg.Clock,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: node %s primary: %w", cfg.Name, err)
	}
	if err := os.MkdirAll(replicaDir, 0o755); err != nil {
		primary.Close()
		return nil, fmt.Errorf("cluster: node %s: %w", cfg.Name, err)
	}
	meta, err := os.ReadFile(filepath.Join(primaryDir, "meta.json"))
	if err == nil {
		err = os.WriteFile(filepath.Join(replicaDir, "meta.json"), meta, 0o644)
	}
	if err != nil {
		primary.Close()
		return nil, fmt.Errorf("cluster: node %s replica meta: %w", cfg.Name, err)
	}
	replica, err := cloud.OpenDurable(replicaDir, cfg.Design, cfg.Registry, cloud.DurableOptions{
		WAL: cfg.WAL, WALShards: cfg.WALShards, Clock: cfg.Clock, Follower: true,
	})
	if err != nil {
		primary.Close()
		return nil, fmt.Errorf("cluster: node %s replica: %w", cfg.Name, err)
	}
	ship, err := newShipper(primaryDir, cfg.WAL.MaxRecord, replica, primary.FlushWAL)
	if err != nil {
		primary.Close()
		replica.Close()
		return nil, fmt.Errorf("cluster: node %s: ship the primary's backlog: %w", cfg.Name, err)
	}
	primary.SetAppendObserver(ship.Offer)
	n := &Node{
		name:       cfg.Name,
		primaryDir: primaryDir,
		maxRecord:  cfg.WAL.MaxRecord,
		primary:    primary,
		replica:    replica,
		ship:       ship,
		ackRep:     cfg.AckAfterReplicate,
	}
	n.Hopped = transport.NewHopped(nodeHop{n})
	return n, nil
}

// Name returns the node's ring identity.
func (n *Node) Name() string { return n.name }

// Primary exposes the serving store (diagnostics, snapshots).
func (n *Node) Primary() *cloud.Durable { return n.primary }

// Replica exposes the follower store.
func (n *Node) Replica() *cloud.Durable { return n.replica }

// Canonical forwards transport.Canonical to the primary.
func (n *Node) Canonical(kind protocol.Held, raw []byte) string {
	return n.primary.Canonical(kind, raw)
}

// ReplicationLag reports how many acked operations the replica is
// missing. Approximate in both directions: both sides are max
// watermarks, and a record is offered to the shipper — where a
// concurrent request's drain may deliver it — before the primary's
// lastAcked CAS for it lands and before the primary applies it. The
// shipped side can therefore read ahead of the acked side; hence the
// clamp instead of a raw unsigned subtraction.
func (n *Node) ReplicationLag() uint64 {
	n.opMu.RLock()
	defer n.opMu.RUnlock()
	if n.killed {
		return 0
	}
	applied, shipped := n.primary.AppliedOps(), n.ship.Watermark()
	if shipped >= applied {
		return 0
	}
	return applied - shipped
}

// CatchUp ships every record the primary has logged so far — the
// async-mode hook for periodic shipping.
func (n *Node) CatchUp() error {
	n.opMu.RLock()
	defer n.opMu.RUnlock()
	if n.killed {
		return errNodeDown
	}
	return n.ship.Drain()
}

// Kill models losing the primary process and its disk: in-flight
// requests drain, the shipper detaches (nothing more is delivered from a
// dead process), the primary closes, and every later request fails with
// errNodeDown. Returns how many acked operations the replica never
// received — the data loss a promotion inherits, zero under
// ack-after-replicate.
func (n *Node) Kill() (lost uint64, err error) {
	n.opMu.Lock()
	defer n.opMu.Unlock()
	if n.killed {
		return 0, fmt.Errorf("cluster: node %s already killed", n.name)
	}
	n.killed = true
	marks := n.ship.ShardMarks()
	n.ship.Detach()
	// Count the stranded records exactly: flush the still-live process's
	// buffers (a bookkeeping read taken before we model the disk loss),
	// then scan each shard log above its shipped mark. Subtracting max
	// watermarks would miss holes — a shard whose high LSN shipped while
	// a lower sibling's record did not reads as fully covered.
	_ = n.primary.FlushWAL()
	var scanErr error
	for shard, mark := range marks {
		dir := filepath.Join(n.primaryDir, "wal", wal.ShardDirName(shard))
		cnt, err := wal.NewTailer(dir, n.maxRecord, mark).Poll(nil)
		lost += uint64(cnt)
		if err != nil && scanErr == nil {
			scanErr = err
		}
	}
	_ = n.primary.Close()
	if scanErr != nil {
		return lost, fmt.Errorf("cluster: kill node %s: count stranded records: %w", n.name, scanErr)
	}
	return lost, nil
}

// Promote turns the replica into a primary and returns it, ready to be
// swapped in behind the node's name. Only legal after Kill.
func (n *Node) Promote() (*cloud.Durable, error) {
	n.opMu.Lock()
	defer n.opMu.Unlock()
	if !n.killed {
		return nil, fmt.Errorf("cluster: promote on live node %s", n.name)
	}
	if err := n.replica.Promote(); err != nil {
		return nil, err
	}
	return n.replica, nil
}

// Close shuts down whichever stores are still open.
func (n *Node) Close() error {
	n.opMu.Lock()
	defer n.opMu.Unlock()
	var first error
	if !n.killed {
		n.killed = true
		n.ship.Detach()
		if err := n.primary.Close(); err != nil {
			first = err
		}
	}
	if err := n.replica.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// nodeHop brackets one request against the primary: Begin takes the read
// side of opMu and refuses a killed node; End ships before the ack under
// the ack-after-replicate policy and releases the lock. The replication
// step runs while still holding the read side, so a kill can never slip
// between a request's apply and its ship. A failed request ships nothing.
type nodeHop struct{ n *Node }

func (h nodeHop) Begin(transport.Op, string) (transport.Cloud, error) {
	n := h.n
	n.opMu.RLock()
	if n.killed {
		n.opMu.RUnlock()
		return nil, errNodeDown
	}
	return n.primary, nil
}

func (h nodeHop) End(_ transport.Op, _ int, err error) (bool, error) {
	n := h.n
	defer n.opMu.RUnlock()
	if err != nil || !n.ackRep {
		return false, err
	}
	if serr := n.ship.Drain(); serr != nil {
		// The operation applied on the primary but its record never
		// reached the replica: under ack-after-replicate that is a
		// failed request (the caller retries; keyed operations dedup on
		// redelivery).
		return false, fmt.Errorf("cluster: node %s replicate: %w", n.name, serr)
	}
	return false, nil
}
