package cloud

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/wal"
)

// shippedRecord is one primary WAL record in transit to a replica.
type shippedRecord struct {
	shard   int
	lsn     uint64
	payload []byte
}

// tailPrimary drains every shard tailer and returns the newly visible
// records in global LSN order — the merge a shipper performs.
func tailPrimary(t *testing.T, tailers []*wal.Tailer) []shippedRecord {
	t.Helper()
	var recs []shippedRecord
	for shard, tr := range tailers {
		_, err := tr.Poll(func(lsn uint64, payload []byte) error {
			recs = append(recs, shippedRecord{shard: shard, lsn: lsn, payload: append([]byte(nil), payload...)})
			return nil
		})
		if err != nil {
			t.Fatalf("tail shard %d: %v", shard, err)
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].lsn < recs[j].lsn })
	return recs
}

// openReplica prepares a replica directory (the primary's meta.json, so
// the master seed, design and shard count match) and opens it as a
// follower sharing the primary's registry and clock.
func openReplica(t *testing.T, primaryDir, replicaDir string, reg *Registry, clock *testClock) *Durable {
	t.Helper()
	return openReplicaDesign(t, primaryDir, replicaDir, devIDDesign(), reg, clock)
}

// openReplicaDesign is openReplica under an explicit design spec.
func openReplicaDesign(t testing.TB, primaryDir, replicaDir string, design core.DesignSpec, reg *Registry, clock *testClock) *Durable {
	t.Helper()
	meta, err := os.ReadFile(filepath.Join(primaryDir, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(replicaDir, "meta.json"), meta, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenDurable(replicaDir, design, reg, DurableOptions{
		Clock: clock.Now, Follower: true, WAL: wal.Options{Policy: wal.SyncOff},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// TestFollowerShipReplaysByteIdentical is the replication contract: a
// follower fed the primary's WAL records through ShipRecord converges on
// a state whose Snapshot encoding is byte-for-byte the primary's —
// tokens included, because the persisted clock/DRBG envelope replays on
// the replica exactly as recovery replays it locally. The replica's own
// shard logs then recover that state across a replica restart.
func TestFollowerShipReplaysByteIdentical(t *testing.T) {
	primaryDir, replicaDir := t.TempDir(), t.TempDir()
	clock := newTestClock()
	reg := NewRegistry()
	if err := reg.Add(DeviceRecord{ID: testDevice, FactorySecret: testSecret, Model: "plug"}); err != nil {
		t.Fatal(err)
	}
	primary, err := OpenDurable(primaryDir, devIDDesign(), reg, DurableOptions{
		Clock: clock.Now, WALShards: 4, WAL: wal.Options{Policy: wal.SyncOff},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	replica := openReplica(t, primaryDir, replicaDir, reg, clock)
	if got, want := replica.WALShards(), primary.WALShards(); got != want {
		t.Fatalf("replica pinned %d WAL shards, primary has %d", got, want)
	}

	tailers := make([]*wal.Tailer, primary.WALShards())
	for i := range tailers {
		tailers[i] = wal.NewTailer(filepath.Join(primaryDir, "wal", wal.ShardDirName(i)), 0, 0)
	}

	// Interleave workload and shipping so the tailers cross live tails.
	runLoggedWorkload(t, primary, clock)
	if err := primary.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	for _, rec := range tailPrimary(t, tailers) {
		if err := replica.ShipRecord(rec.shard, rec.lsn, rec.payload); err != nil {
			t.Fatalf("ship %d: %v", rec.lsn, err)
		}
	}
	if _, err := primary.HandleStatus(protocol.StatusRequest{
		Kind: protocol.StatusHeartbeat, DeviceID: testDevice, IdempotencyKey: "hb-ship",
	}); err != nil {
		t.Fatal(err)
	}
	if err := primary.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	shipped := tailPrimary(t, tailers)
	for _, rec := range shipped {
		if err := replica.ShipRecord(rec.shard, rec.lsn, rec.payload); err != nil {
			t.Fatalf("ship %d: %v", rec.lsn, err)
		}
	}

	if got, want := replica.AppliedOps(), primary.AppliedOps(); got != want {
		t.Fatalf("replication watermark = %d, primary watermark = %d", got, want)
	}
	want := encodeState(t, primary)
	if got := encodeState(t, replica); !bytes.Equal(want, got) {
		t.Errorf("replica state differs from primary:\nprimary:\n%s\nreplica:\n%s", want, got)
	}

	// Redelivery at or below the watermark is an idempotent no-op.
	last := shipped[len(shipped)-1]
	if err := replica.ShipRecord(last.shard, last.lsn, last.payload); err != nil {
		t.Fatalf("redelivered ship: %v", err)
	}
	if got, want := replica.AppliedOps(), primary.AppliedOps(); got != want {
		t.Fatalf("watermark moved on redelivery: %d, want %d", got, want)
	}

	// The replica's shipped logs are its own recovery source: a replica
	// restart replays to the same state.
	if err := replica.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := openReplica(t, primaryDir, replicaDir, reg, clock)
	if got := encodeState(t, reopened); !bytes.Equal(want, got) {
		t.Errorf("restarted replica state differs from primary:\nprimary:\n%s\nreplica:\n%s", want, got)
	}
	if got, want := reopened.AppliedOps(), primary.AppliedOps(); got != want {
		t.Fatalf("restarted replication watermark = %d, want %d", got, want)
	}
}

// TestFollowerRejectsMutationsUntilPromoted pins the follower contract:
// every mutating handler returns ErrNotPrimary (retryable — no wire
// code, so the retry layer keeps the request alive across a failover),
// reads pass through, and Promote flips the node to a serving primary
// whose LSNs continue above the shipped watermark.
func TestFollowerRejectsMutationsUntilPromoted(t *testing.T) {
	primaryDir, replicaDir := t.TempDir(), t.TempDir()
	clock := newTestClock()
	reg := NewRegistry()
	if err := reg.Add(DeviceRecord{ID: testDevice, FactorySecret: testSecret, Model: "plug"}); err != nil {
		t.Fatal(err)
	}
	primary, err := OpenDurable(primaryDir, devIDDesign(), reg, DurableOptions{
		Clock: clock.Now, WALShards: 4, WAL: wal.Options{Policy: wal.SyncEveryRecord},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	runLoggedWorkload(t, primary, clock)

	replica := openReplica(t, primaryDir, replicaDir, reg, clock)
	if !replica.IsFollower() {
		t.Fatal("fresh follower reports IsFollower = false")
	}
	if _, err := replica.HandleStatus(protocol.StatusRequest{
		Kind: protocol.StatusHeartbeat, DeviceID: testDevice,
	}); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("follower HandleStatus = %v, want ErrNotPrimary", err)
	}
	if _, err := replica.HandleStatusBatch(protocol.StatusBatchRequest{
		Items: []protocol.StatusRequest{{Kind: protocol.StatusHeartbeat, DeviceID: testDevice}},
	}); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("follower HandleStatusBatch = %v, want ErrNotPrimary", err)
	}
	if err := replica.RegisterUser(protocol.RegisterUserRequest{UserID: "x@y", Password: "p"}); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("follower RegisterUser = %v, want ErrNotPrimary", err)
	}
	if code, ok := protocol.WireCode(ErrNotPrimary); ok {
		t.Fatalf("ErrNotPrimary carries wire code %q (the retry layer would treat it as final)", code)
	}
	if _, err := replica.ShadowState(protocol.ShadowStateRequest{DeviceID: testDevice}); err != nil {
		t.Fatalf("follower read = %v, want pass-through", err)
	}
	if err := primary.ShipRecord(0, 1, nil); err == nil {
		t.Fatal("ShipRecord on a primary must fail")
	}

	// Catch the replica up, promote, and serve.
	tailers := make([]*wal.Tailer, primary.WALShards())
	for i := range tailers {
		tailers[i] = wal.NewTailer(filepath.Join(primaryDir, "wal", wal.ShardDirName(i)), 0, 0)
	}
	for _, rec := range tailPrimary(t, tailers) {
		if err := replica.ShipRecord(rec.shard, rec.lsn, rec.payload); err != nil {
			t.Fatalf("ship %d: %v", rec.lsn, err)
		}
	}
	if err := replica.Promote(); err != nil {
		t.Fatal(err)
	}
	if replica.IsFollower() {
		t.Fatal("promoted replica still reports IsFollower")
	}
	if err := replica.ShipRecord(0, replica.AppliedOps()+1, nil); err == nil {
		t.Fatal("ShipRecord after promotion must fail")
	}
	before := replica.AppliedOps()
	if _, err := replica.HandleStatus(protocol.StatusRequest{
		Kind: protocol.StatusHeartbeat, DeviceID: testDevice, IdempotencyKey: "hb-promoted",
	}); err != nil {
		t.Fatalf("promoted replica HandleStatus = %v", err)
	}
	if got := replica.AppliedOps(); got != before+1 {
		t.Fatalf("promoted replica watermark = %d, want %d (LSNs continue past the shipped stream)", got, before+1)
	}
}

// TestShipRecordAcceptsCrossShardStraggler pins the fix for the
// cross-shard LSN race: shard logs flush independently, so a higher
// LSN on one shard can ship before a lower LSN still in flight on
// another. The replica must accept that straggler when it finally
// arrives — a global `lsn <= lastAcked` redelivery check would discard
// it silently and permanently, leaving an acked operation missing from
// the promoted state while Kill reports zero loss.
func TestShipRecordAcceptsCrossShardStraggler(t *testing.T) {
	primaryDir, replicaDir := t.TempDir(), t.TempDir()
	clock := newTestClock()
	reg := NewRegistry()
	if err := reg.Add(DeviceRecord{ID: testDevice, FactorySecret: testSecret, Model: "plug"}); err != nil {
		t.Fatal(err)
	}
	primary, err := OpenDurable(primaryDir, devIDDesign(), reg, DurableOptions{
		Clock: clock.Now, WALShards: 4, WAL: wal.Options{Policy: wal.SyncOff},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()

	// A second device on a different WAL shard than testDevice's.
	shardA := primary.WALShardOf(testDevice)
	devB := ""
	for i := 0; devB == ""; i++ {
		cand := fmt.Sprintf("AA:BB:CC:00:01:%02X", i)
		if primary.WALShardOf(cand) != shardA {
			devB = cand
		}
	}
	if err := reg.Add(DeviceRecord{ID: devB, FactorySecret: "factory-secret-b", Model: "plug"}); err != nil {
		t.Fatal(err)
	}
	replica := openReplica(t, primaryDir, replicaDir, reg, clock)

	for _, req := range []protocol.StatusRequest{
		{Kind: protocol.StatusRegister, DeviceID: testDevice, Firmware: "1.0", Model: "plug"},
		{Kind: protocol.StatusRegister, DeviceID: devB, Firmware: "1.0", Model: "plug"},
		{Kind: protocol.StatusHeartbeat, DeviceID: testDevice, IdempotencyKey: "hb-straggler"},
		{Kind: protocol.StatusHeartbeat, DeviceID: devB, IdempotencyKey: "hb-ahead"},
	} {
		if _, err := primary.HandleStatus(req); err != nil {
			t.Fatal(err)
		}
	}
	if err := primary.FlushWAL(); err != nil {
		t.Fatal(err)
	}

	tailers := make([]*wal.Tailer, primary.WALShards())
	for i := range tailers {
		tailers[i] = wal.NewTailer(filepath.Join(primaryDir, "wal", wal.ShardDirName(i)), 0, 0)
	}
	recs := tailPrimary(t, tailers)
	if len(recs) != 4 {
		t.Fatalf("workload produced %d records, want 4", len(recs))
	}
	straggler := recs[2] // testDevice's heartbeat: shard A, below devB's heartbeat LSN
	if straggler.shard != shardA || recs[3].shard == shardA {
		t.Fatalf("workload did not interleave shards as expected: %+v", recs)
	}

	// Deliver everything except the straggler — in particular the
	// higher LSN on the sibling shard — as an out-of-order flush would.
	for _, rec := range []shippedRecord{recs[0], recs[1], recs[3]} {
		if err := replica.ShipRecord(rec.shard, rec.lsn, rec.payload); err != nil {
			t.Fatalf("ship %d: %v", rec.lsn, err)
		}
	}
	if got := replica.AppliedOps(); got != recs[3].lsn {
		t.Fatalf("replica watermark = %d, want %d", got, recs[3].lsn)
	}

	// The late straggler sits below the replica's max watermark but
	// above its own shard's: it must be applied, not skipped.
	if err := replica.ShipRecord(straggler.shard, straggler.lsn, straggler.payload); err != nil {
		t.Fatalf("ship straggler %d: %v", straggler.lsn, err)
	}
	if got := replica.ShardWatermarks()[shardA]; got != straggler.lsn {
		t.Fatalf("shard %d watermark = %d, want %d (straggler dropped)", shardA, got, straggler.lsn)
	}
	if got := replica.AppliedOps(); got != recs[3].lsn {
		t.Fatalf("max watermark moved backward to %d on the straggler", got)
	}
	want := encodeState(t, primary)
	if got := encodeState(t, replica); !bytes.Equal(want, got) {
		t.Errorf("replica state differs from primary after the straggler:\nprimary:\n%s\nreplica:\n%s", want, got)
	}
}

// TestShipRecordRejectsBadShard bounds the shard tag.
func TestShipRecordRejectsBadShard(t *testing.T) {
	primaryDir, replicaDir := t.TempDir(), t.TempDir()
	clock := newTestClock()
	reg := NewRegistry()
	primary, err := OpenDurable(primaryDir, devIDDesign(), reg, DurableOptions{
		Clock: clock.Now, WALShards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	replica := openReplica(t, primaryDir, replicaDir, reg, clock)
	for _, shard := range []int{-1, replica.WALShards()} {
		if err := replica.ShipRecord(shard, 1, []byte("x")); err == nil {
			t.Fatalf("ShipRecord(shard=%d) accepted an out-of-range shard", shard)
		}
	}
	if got := replica.AppliedOps(); got != 0 {
		t.Fatalf("watermark moved to %d on rejected ships", got)
	}
}

// TestFollowerShippingLeavesRecoveryReportAlone: Recovery() says what
// OpenDurable rebuilt. Live shipping used to count every shipped record
// into Replayed — and Recovery() reads the report with no lock while
// ShipRecord runs — so the report both drifted and raced. The primary's
// append observer is the record source here, which also pins its
// contract: every logged record, once, in per-shard LSN order, with a
// payload the observer must copy before it returns.
func TestFollowerShippingLeavesRecoveryReportAlone(t *testing.T) {
	primaryDir, replicaDir := t.TempDir(), t.TempDir()
	clock := newTestClock()
	reg := NewRegistry()
	if err := reg.Add(DeviceRecord{ID: testDevice, FactorySecret: testSecret, Model: "plug"}); err != nil {
		t.Fatal(err)
	}
	primary, err := OpenDurable(primaryDir, devIDDesign(), reg, DurableOptions{
		Clock: clock.Now, WALShards: 4, WAL: wal.Options{Policy: wal.SyncOff},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	var observed []shippedRecord
	primary.SetAppendObserver(func(shard int, lsn uint64, payload []byte) {
		observed = append(observed, shippedRecord{shard: shard, lsn: lsn, payload: append([]byte(nil), payload...)})
	})
	runLoggedWorkload(t, primary, clock)
	if err := primary.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	tailers := make([]*wal.Tailer, primary.WALShards())
	for i := range tailers {
		tailers[i] = wal.NewTailer(filepath.Join(primaryDir, "wal", wal.ShardDirName(i)), 0, 0)
	}
	onDisk := tailPrimary(t, tailers)
	sort.Slice(observed, func(i, j int) bool { return observed[i].lsn < observed[j].lsn })
	if len(observed) == 0 || len(observed) != len(onDisk) {
		t.Fatalf("observer saw %d records, the shard logs hold %d", len(observed), len(onDisk))
	}
	for i, rec := range observed {
		if d := onDisk[i]; rec.shard != d.shard || rec.lsn != d.lsn || !bytes.Equal(rec.payload, d.payload) {
			t.Fatalf("observed record %d = shard %d LSN %d, the log holds shard %d LSN %d (payload equal: %v)",
				i, rec.shard, rec.lsn, d.shard, d.lsn, bytes.Equal(rec.payload, d.payload))
		}
	}

	replica := openReplica(t, primaryDir, replicaDir, reg, clock)
	before := replica.Recovery().Replayed
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, rec := range observed {
			if err := replica.ShipRecord(rec.shard, rec.lsn, rec.payload); err != nil {
				t.Errorf("ship %d: %v", rec.lsn, err)
				return
			}
		}
	}()
	for shipping := true; shipping; {
		select {
		case <-done:
			shipping = false
		default:
		}
		if got := replica.Recovery().Replayed; got != before {
			t.Fatalf("Recovery().Replayed = %d while shipping, OpenDurable replayed %d", got, before)
		}
	}
	if got, want := replica.AppliedOps(), primary.AppliedOps(); got != want {
		t.Fatalf("replica watermark = %d, primary watermark = %d", got, want)
	}

	// A restart of the replica replays its own logs: that is recovery,
	// and is counted.
	if err := replica.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenDurable(replicaDir, devIDDesign(), reg, DurableOptions{
		Clock: clock.Now, Follower: true, WAL: wal.Options{Policy: wal.SyncOff},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := reopened.Recovery().Replayed; got != len(observed) {
		t.Fatalf("reopened replica replayed %d records, its logs hold %d", got, len(observed))
	}
}
