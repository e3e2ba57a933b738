package cluster_test

import (
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"github.com/iotbind/iotbind/internal/cloud"
	"github.com/iotbind/iotbind/internal/cluster"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/testbed"
	"github.com/iotbind/iotbind/internal/transport"
	"github.com/iotbind/iotbind/internal/wal"
)

// TestClusterSmoke is the cluster's failover gate: three nodes, one
// mid-run primary kill, ack-after-replicate — the merged final state
// must match the single-node reference byte for byte with zero acked
// operations lost. Kept intentionally small so it earns a slot in ci.
func TestClusterSmoke(t *testing.T) {
	res, err := testbed.RunClusterLoad(testbed.ClusterLoadConfig{
		Dir:               t.TempDir(),
		Nodes:             3,
		Devices:           9,
		Heartbeats:        6,
		ReadingEvery:      2,
		Workers:           3,
		Kills:             1,
		AckAfterReplicate: true,
	})
	if err != nil {
		t.Fatalf("cluster smoke: %v", err)
	}
	if !res.StateVerified {
		t.Fatal("cluster smoke: merged state was not verified")
	}
	if res.MaxLostAcked != 0 {
		t.Fatalf("cluster smoke: lost %d acked operations", res.MaxLostAcked)
	}
	t.Logf("cluster smoke: %d msgs, %d kill(s), %.0f msg/s, state verified",
		res.Messages, res.Kills, res.MsgsPerSec)
}

// BenchmarkClusterStatus measures keyed heartbeat throughput through the
// full cluster path — ring lookup, switchable indirection, primary
// apply, synchronous WAL ship to the replica — the per-message cost of
// the failover guarantee (compare BenchmarkDurableStatus for the
// single-store baseline).
func BenchmarkClusterStatus(b *testing.B) {
	const nodes = 3
	at := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return at }

	ids := make([]string, 64)
	reg := cloud.NewRegistry()
	for i := range ids {
		ids[i] = fmt.Sprintf("AA:BB:CC:BE:%02X:%02X", (i>>8)&0xff, i&0xff)
		if err := reg.Add(cloud.DeviceRecord{ID: ids[i], FactorySecret: "factory-secret-" + ids[i], Model: "bench"}); err != nil {
			b.Fatal(err)
		}
	}

	names := make([]string, nodes)
	members := make(map[string]*transport.Switchable, nodes)
	for k := 0; k < nodes; k++ {
		names[k] = fmt.Sprintf("node-%d", k)
		n, err := cluster.NewNode(cluster.NodeConfig{
			Name:              names[k],
			Dir:               filepath.Join(b.TempDir(), names[k]),
			Design:            testbed.ClusterLabDesign(),
			Registry:          reg,
			Clock:             clock,
			WALShards:         4,
			WAL:               wal.Options{Policy: wal.SyncOff},
			AckAfterReplicate: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer n.Close()
		members[names[k]] = transport.NewSwitchable(n)
	}
	ring, err := cluster.NewRing(names, 0)
	if err != nil {
		b.Fatal(err)
	}
	router, err := cluster.NewRouter(ring, members)
	if err != nil {
		b.Fatal(err)
	}
	for _, id := range ids {
		if _, err := router.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: id}); err != nil {
			b.Fatal(err)
		}
	}

	var seq atomic.Uint64
	b.ResetTimer()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			// Unique keys force every heartbeat through the WAL and the
			// synchronous ship — the path being priced.
			n := seq.Add(1)
			req := protocol.StatusRequest{
				Kind:           protocol.StatusHeartbeat,
				DeviceID:       ids[n%uint64(len(ids))],
				IdempotencyKey: fmt.Sprintf("bench-%d", n),
			}
			if _, err := router.HandleStatus(req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
