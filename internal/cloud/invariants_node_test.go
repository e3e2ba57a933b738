package cloud_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/iotbind/iotbind/internal/cloud"
	"github.com/iotbind/iotbind/internal/cluster"
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/wal"
)

// TestCloudInvariantsUnderRandomOpsOnNode runs the seeded sequences of
// TestCloudInvariantsUnderRandomOps through an ack-after-replicate
// cluster.Node, checking the same invariants on its primary, and
// requires the replica, which applied every shipped record, to end each
// seed byte-identical to the primary.
func TestCloudInvariantsUnderRandomOpsOnNode(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			var n *cluster.Node
			cloud.RunRandomOps(t, seed, func(t *testing.T, design core.DesignSpec, reg *cloud.Registry, clock func() time.Time) cloud.RandomOpsTarget {
				var err error
				n, err = cluster.NewNode(cluster.NodeConfig{
					Name: "n0", Dir: t.TempDir(), Design: design, Registry: reg, Clock: clock,
					WALShards: 2, WAL: wal.Options{Policy: wal.SyncOff}, AckAfterReplicate: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { n.Close() })
				return cloud.RandomOpsTarget{Cloud: n, Svc: n.Primary().Service(), KeyStatus: true}
			})
			// A read that finds the heartbeat expired (ShadowState) takes the
			// primary's shadow offline in memory and logs nothing; the
			// replica takes that edge at the device's next logged
			// operation. One keyed heartbeat, which both apply, ends the seed.
			if _, err := n.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusHeartbeat,
				DeviceID: "AA:BB:CC:00:00:01", IdempotencyKey: "final"}); err != nil {
				t.Fatal(err)
			}
			var enc [2]bytes.Buffer
			for i, d := range []*cloud.Durable{n.Primary(), n.Replica()} {
				if err := cloud.EncodeSnapshot(&enc[i], d.Snapshot()); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(enc[0].Bytes(), enc[1].Bytes()) {
				t.Fatalf("primary and replica snapshots differ (%d vs %d bytes)", enc[0].Len(), enc[1].Len())
			}
		})
	}
}
