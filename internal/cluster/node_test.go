package cluster

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"github.com/iotbind/iotbind/internal/cloud"
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/wal"
)

func labDesign() core.DesignSpec {
	return core.DesignSpec{
		Name:                 "cluster-lab",
		DeviceAuth:           core.AuthDevID,
		Binding:              core.BindACLDevice,
		UnbindForms:          []core.UnbindForm{core.UnbindDevIDAlone},
		CheckBoundUserOnBind: true,
	}
}

func labClock() func() time.Time {
	at := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	return func() time.Time { return at }
}

func labRegistry(t *testing.T, ids ...string) *cloud.Registry {
	t.Helper()
	reg := cloud.NewRegistry()
	for _, id := range ids {
		if err := reg.Add(cloud.DeviceRecord{ID: id, FactorySecret: "factory-secret-" + id, Model: "lab"}); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

func newLabNode(t *testing.T, name string, ack bool, ids ...string) *Node {
	t.Helper()
	n, err := NewNode(NodeConfig{
		Name:              name,
		Dir:               filepath.Join(t.TempDir(), name),
		Design:            labDesign(),
		Registry:          labRegistry(t, ids...),
		Clock:             labClock(),
		WALShards:         4,
		WAL:               wal.Options{Policy: wal.SyncOff},
		AckAfterReplicate: ack,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

const labDev = "AA:BB:CC:01:02:03"

func driveNode(t *testing.T, n *Node) {
	t.Helper()
	if err := n.RegisterUser(protocol.RegisterUserRequest{UserID: "u@lab", Password: "pw"}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: labDev}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.HandleBind(protocol.BindRequest{
		DeviceID: labDev, UserID: "u@lab", UserPassword: "pw", IdempotencyKey: "bind-1",
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := n.HandleStatus(protocol.StatusRequest{
			Kind: protocol.StatusHeartbeat, DeviceID: labDev,
			IdempotencyKey: "hb-" + string(rune('a'+i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNodeAckAfterReplicateKeepsReplicaCurrent: with synchronous
// shipping every ack implies the replica already holds the record, so
// lag is zero at any observation point and a kill loses nothing.
func TestNodeAckAfterReplicateKeepsReplicaCurrent(t *testing.T) {
	n := newLabNode(t, "n0", true, labDev)
	driveNode(t, n)
	if lag := n.ReplicationLag(); lag != 0 {
		t.Fatalf("lag = %d under ack-after-replicate", lag)
	}
	lost, err := n.Kill()
	if err != nil {
		t.Fatal(err)
	}
	if lost != 0 {
		t.Fatalf("kill lost %d acked operations under ack-after-replicate", lost)
	}

	// Down means down, with the retryable marker error.
	if _, err := n.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: labDev}); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("killed node returned %v, want ErrNodeDown", err)
	}

	promoted, err := n.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if promoted.IsFollower() {
		t.Fatal("promoted replica still a follower")
	}
	// The promoted store carries the full acked history and serves
	// immediately.
	resp, err := promoted.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: labDev})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Bound {
		t.Fatal("promoted replica lost the binding")
	}
}

// TestNodeAsyncShippingLosesUnshippedAcks: without ack-after-replicate
// nothing ships until CatchUp runs, so a kill strands every acked
// operation since the last CatchUp — exactly what Kill must report.
func TestNodeAsyncShippingLosesUnshippedAcks(t *testing.T) {
	n := newLabNode(t, "n0", false, labDev)
	driveNode(t, n)
	if lag := n.ReplicationLag(); lag == 0 {
		t.Fatal("async node reports zero lag with nothing shipped")
	}
	// One explicit catch-up drains the backlog...
	if err := n.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if lag := n.ReplicationLag(); lag != 0 {
		t.Fatalf("lag = %d after CatchUp", lag)
	}
	// ...and acks after it are stranded by a kill.
	if _, err := n.HandleStatus(protocol.StatusRequest{
		Kind: protocol.StatusHeartbeat, DeviceID: labDev, IdempotencyKey: "hb-tail",
	}); err != nil {
		t.Fatal(err)
	}
	lost, err := n.Kill()
	if err != nil {
		t.Fatal(err)
	}
	if lost != 1 {
		t.Fatalf("kill reported %d lost acks, want 1", lost)
	}
}

func TestNodeLifecycleGuards(t *testing.T) {
	n := newLabNode(t, "n0", true, labDev)
	if _, err := n.Promote(); err == nil {
		t.Fatal("promote on a live node accepted")
	}
	if _, err := n.Kill(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Kill(); err == nil {
		t.Fatal("double kill accepted")
	}
	if err := n.CatchUp(); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("CatchUp on killed node: %v, want ErrNodeDown", err)
	}
	if _, err := n.Promote(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
}

// ErrNodeDown must stay retryable: the failover story depends on the
// retry layer carrying requests across the kill→promote→swap window.
func TestErrNodeDownHasNoWireCode(t *testing.T) {
	if code, ok := protocol.WireCode(ErrNodeDown); ok {
		t.Fatalf("ErrNodeDown carries wire code %q; the retry layer would give up on failovers", code)
	}
}
