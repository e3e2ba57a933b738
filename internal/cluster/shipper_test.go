package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/iotbind/iotbind/internal/cloud"
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/transport"
	"github.com/iotbind/iotbind/internal/wal"
)

// failShip makes the shipper's next n deliveries fail (n < 0: all of
// them) and returns the injected error.
func failShip(s *Shipper, n int) error {
	errInjected := errors.New("injected ship failure")
	s.mu.Lock()
	defer s.mu.Unlock()
	real := s.ship
	s.ship = func(shard int, lsn uint64, payload []byte) error {
		if n != 0 {
			if n > 0 {
				n--
			}
			return errInjected
		}
		return real(shard, lsn, payload)
	}
	return errInjected
}

func keyedStatus(id, key string) protocol.StatusRequest {
	return protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: id, IdempotencyKey: key}
}

// fatStatus is a keyed status whose WAL record is a few KiB, so a test
// reaches the feed's byte cap in about a thousand requests.
func fatStatus(id, key string) protocol.StatusRequest {
	req := keyedStatus(id, key)
	name := strings.Repeat("sensor-", 32)
	for i := 0; i < 16; i++ {
		req.Readings = append(req.Readings, protocol.Reading{Name: fmt.Sprintf("%s%d", name, i), Value: float64(i), At: labClock()()})
	}
	return req
}

// shardDevices returns n registered-looking device IDs per WAL shard of
// a four-shard lab node (the routing hash is fixed, so a throwaway node
// answers for every node).
func shardDevices(t *testing.T, n int) []string {
	t.Helper()
	probe := newLabNode(t, "probe", false)
	per := make([]int, probe.primary.WALShards())
	var ids []string
	for i := 0; len(ids) < n*len(per); i++ {
		if i > 4096 {
			t.Fatal("device IDs do not spread over the WAL shards")
		}
		id := fmt.Sprintf("AA:BB:CC:5D:%02X:%02X", i>>8, i&0xff)
		if shard := probe.primary.WALShardOf(id); per[shard] < n {
			per[shard]++
			ids = append(ids, id)
		}
	}
	return ids
}

// enrollDevices registers a user and registers and binds every device.
func enrollDevices(t *testing.T, n *Node, ids []string) {
	t.Helper()
	if err := n.RegisterUser(protocol.RegisterUserRequest{UserID: "u@lab", Password: "pw"}); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if _, err := n.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: id}); err != nil {
			t.Fatal(err)
		}
		if _, err := n.HandleBind(protocol.BindRequest{
			DeviceID: id, UserID: "u@lab", UserPassword: "pw", IdempotencyKey: "bind-" + id,
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// rebind is one cold-lane cycle on a bound device: unbind, bind again.
func rebind(n *Node, id string, round int) error {
	if err := n.HandleUnbind(protocol.UnbindRequest{
		DeviceID: id, IdempotencyKey: fmt.Sprintf("unbind-%s-%d", id, round),
	}); err != nil {
		return err
	}
	_, err := n.HandleBind(protocol.BindRequest{
		DeviceID: id, UserID: "u@lab", UserPassword: "pw", IdempotencyKey: fmt.Sprintf("rebind-%s-%d", id, round),
	})
	return err
}

// requireSnapshotsEqual compares two stores' full state, activity
// counters included, as EncodeSnapshot bytes.
func requireSnapshotsEqual(t *testing.T, primary, replica *cloud.Durable) {
	t.Helper()
	var enc [2]bytes.Buffer
	for i, d := range []*cloud.Durable{primary, replica} {
		if err := cloud.EncodeSnapshot(&enc[i], d.Snapshot()); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(enc[0].Bytes(), enc[1].Bytes()) {
		t.Fatalf("primary and replica snapshots differ (%d vs %d bytes)", enc[0].Len(), enc[1].Len())
	}
}

// shardLogBytes is one shard log as it sits on disk: its segment files
// in order, concatenated (frames only — segments carry no header).
func shardLogBytes(t *testing.T, durableDir string, shard int) []byte {
	t.Helper()
	dir := filepath.Join(durableDir, "wal", wal.ShardDirName(shard))
	entries, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	var log []byte
	for _, e := range entries {
		seg, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		log = append(log, seg...)
	}
	return log
}

// requireReplicaLogsMatch is the `walinspect replica` invariant at its
// strongest: once both sides flushed and the replica caught up, every
// replica shard log is byte for byte the primary's — no gap, no
// duplicate, no reordering within a shard.
func requireReplicaLogsMatch(t *testing.T, n *Node) {
	t.Helper()
	for _, d := range []*cloud.Durable{n.primary, n.replica} {
		if err := d.FlushWAL(); err != nil {
			t.Fatal(err)
		}
	}
	replicaDir := filepath.Join(filepath.Dir(n.primaryDir), "replica")
	for shard := 0; shard < n.primary.WALShards(); shard++ {
		pri, rep := shardLogBytes(t, n.primaryDir, shard), shardLogBytes(t, replicaDir, shard)
		if !bytes.Equal(pri, rep) {
			t.Fatalf("shard %d: replica log is %d bytes, primary log %d bytes (prefix-equal: %v)",
				shard, len(rep), len(pri), bytes.HasPrefix(pri, rep))
		}
	}
}

// TestShipperRetriesPendingAfterTransientFailure pins the pending
// buffer: the feed forgets a record the moment a drain takes it, so
// when a delivery fails mid-drain the taken-but-undelivered records
// must survive in the shipper and go out on the next drain. Without
// the buffer they would exist only in the segment files, which steady
// state never reads, and the replica could never catch up even though
// the failure was transient.
func TestShipperRetriesPendingAfterTransientFailure(t *testing.T) {
	n := newLabNode(t, "n0", false, labDev)
	driveNode(t, n)
	errInjected := failShip(n.ship, 1)

	// The first drain takes the whole backlog off the feed, then fails
	// on the very first delivery.
	if err := n.CatchUp(); !errors.Is(err, errInjected) {
		t.Fatalf("CatchUp = %v, want the injected failure", err)
	}
	if lag := n.ReplicationLag(); lag == 0 {
		t.Fatal("zero lag reported after a failed drain")
	}

	// The retry drains the pending buffer and fully catches up.
	if err := n.CatchUp(); err != nil {
		t.Fatalf("CatchUp retry = %v, want success", err)
	}
	if lag := n.ReplicationLag(); lag != 0 {
		t.Fatalf("lag = %d after successful retry", lag)
	}
	requireReplicaLogsMatch(t, n)
	lost, err := n.Kill()
	if err != nil {
		t.Fatal(err)
	}
	if lost != 0 {
		t.Fatalf("kill after full catch-up reported %d lost acks", lost)
	}
}

// TestShipperPendingOutlivesTheArena: a record a drain took but could
// not deliver lies in an arena the feed gets back and overwrites two
// takes later, so the pending buffer must own its bytes by then. Two
// failed drains with traffic in between put the first drain's records
// through exactly that, and the replica's logs must still come out byte
// for byte the primary's.
func TestShipperPendingOutlivesTheArena(t *testing.T) {
	n := newLabNode(t, "n0", false, labDev)
	driveNode(t, n)
	if err := n.CatchUp(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 4; i++ {
			if _, err := n.HandleStatus(keyedStatus(labDev, fmt.Sprintf("hb-round-%d-%d", round, i))); err != nil {
				t.Fatal(err)
			}
		}
		if round == 2 {
			break
		}
		errInjected := failShip(n.ship, 1)
		if err := n.CatchUp(); !errors.Is(err, errInjected) {
			t.Fatalf("round %d: CatchUp = %v, want the injected failure", round, err)
		}
	}
	if err := n.CatchUp(); err != nil {
		t.Fatalf("CatchUp once the failure cleared = %v", err)
	}
	requireReplicaLogsMatch(t, n)
	requireSnapshotsEqual(t, n.primary, n.replica)
}

// TestShipperAckRetriesStrandedRecord is the same contract on the ack
// path: the request whose record could not be delivered fails, the
// record stays pending, and the very next ack's drain — here a bare
// heartbeat's, which logs nothing of its own — delivers it. If the
// failure never clears, Kill still counts the stranded record from the
// primary's files.
func TestShipperAckRetriesStrandedRecord(t *testing.T) {
	n := newLabNode(t, "n0", true, labDev)
	driveNode(t, n)
	errInjected := failShip(n.ship, 1)
	if _, err := n.HandleStatus(keyedStatus(labDev, "hb-stranded")); !errors.Is(err, errInjected) {
		t.Fatalf("status with a failing ship = %v, want the injected failure", err)
	}
	if lag := n.ReplicationLag(); lag != 1 {
		t.Fatalf("lag = %d with one record stranded, want 1", lag)
	}
	if _, err := n.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: labDev}); err != nil {
		t.Fatalf("bare heartbeat after the failure cleared: %v", err)
	}
	if lag := n.ReplicationLag(); lag != 0 {
		t.Fatalf("lag = %d after the next ack's drain", lag)
	}
	requireReplicaLogsMatch(t, n)

	errInjected = failShip(n.ship, -1)
	if _, err := n.HandleStatus(keyedStatus(labDev, "hb-lost")); !errors.Is(err, errInjected) {
		t.Fatalf("status with a failing ship = %v, want the injected failure", err)
	}
	lost, err := n.Kill()
	if err != nil {
		t.Fatal(err)
	}
	// Two records: the bare heartbeat's liveness note was flushed ahead
	// of the status that failed.
	if lost != 2 {
		t.Fatalf("kill reported %d stranded records, want 2", lost)
	}
}

// TestShipperDetachedShortOfTargetErrors: once the primary's disk is
// gone, records offered but never delivered can never arrive — a drain
// must say so, not report a silent success that lets an unreplicated
// operation ack.
func TestShipperDetachedShortOfTargetErrors(t *testing.T) {
	n := newLabNode(t, "n0", false, labDev)
	driveNode(t, n)
	n.ship.Detach()
	if err := n.ship.Drain(); err == nil {
		t.Fatal("detached shipper reported records it never delivered as shipped")
	}

	// With everything offered already delivered, a drain after detach
	// has nothing to do and succeeds.
	n = newLabNode(t, "n1", false, labDev)
	driveNode(t, n)
	if err := n.CatchUp(); err != nil {
		t.Fatal(err)
	}
	n.ship.Detach()
	if err := n.ship.Drain(); err != nil {
		t.Fatalf("detached shipper failed with nothing outstanding: %v", err)
	}
}

// TestReplicationLagClampsShippedAhead: a record is offered to the
// shipper, and may be delivered by a concurrent request's drain, before
// its lastAcked CAS on the primary has landed. The lag report must clamp
// to zero instead of underflowing to ~2^64.
func TestReplicationLagClampsShippedAhead(t *testing.T) {
	n := newLabNode(t, "n0", false, labDev)
	driveNode(t, n)
	n.ship.mu.Lock()
	n.ship.shipped = n.primary.AppliedOps() + 3
	n.ship.mu.Unlock()
	if lag := n.ReplicationLag(); lag != 0 {
		t.Fatalf("lag = %d, want 0 while the shipper runs ahead of the ack watermark", lag)
	}
}

// TestNodeAttachShipsBacklogThenFeed: a node reopened over a primary
// that is ahead of its replica ships the backlog from the segment files
// inside NewNode, before the feed goes live; records logged afterwards
// arrive through memory. The seam must show no gap and no duplicate.
func TestNodeAttachShipsBacklogThenFeed(t *testing.T) {
	cfg := NodeConfig{
		Name:      "n0",
		Dir:       filepath.Join(t.TempDir(), "n0"),
		Design:    labDesign(),
		Registry:  labRegistry(t, labDev),
		Clock:     labClock(),
		WALShards: 4,
		WAL:       wal.Options{Policy: wal.SyncOff},
	}
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	driveNode(t, n)
	backlog := n.primary.AppliedOps()
	if got := n.replica.AppliedOps(); got != 0 {
		t.Fatalf("async node shipped through LSN %d with no CatchUp", got)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	cfg.AckAfterReplicate = true
	n, err = NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if got := n.replica.AppliedOps(); got < backlog {
		t.Fatalf("reopened node's replica is at LSN %d, the primary's files reach %d", got, backlog)
	}
	if lag := n.ReplicationLag(); lag != 0 {
		t.Fatalf("lag = %d after attach", lag)
	}
	for i := 0; i < 5; i++ {
		if _, err := n.HandleStatus(keyedStatus(labDev, fmt.Sprintf("hb-live-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := rebind(n, labDev, 0); err != nil {
		t.Fatal(err)
	}
	if lag := n.ReplicationLag(); lag != 0 {
		t.Fatalf("lag = %d under ack-after-replicate", lag)
	}
	requireReplicaLogsMatch(t, n)
	requireSnapshotsEqual(t, n.primary, n.replica)
}

// TestShipperOverflowReseedsFromDisk: an async node nobody drains must
// not grow the heap with its backlog. The feed holds at most its cap;
// past it the feed forgets everything, and the next CatchUp rebuilds the
// backlog from the primary's segment files.
func TestShipperOverflowReseedsFromDisk(t *testing.T) {
	n := newLabNode(t, "n0", false, labDev)
	driveNode(t, n)
	f := &n.ship.feed
	overflowed := false
	for i := 0; !overflowed; i++ {
		if i > 1<<15 {
			t.Fatal("the feed never overflowed")
		}
		if _, err := n.HandleStatus(fatStatus(labDev, fmt.Sprintf("fat-%d", i))); err != nil {
			t.Fatal(err)
		}
		f.mu.Lock()
		if len(f.arena) > feedCapBytes {
			t.Fatalf("feed retains %d bytes, cap %d", len(f.arena), feedCapBytes)
		}
		overflowed = f.overflowed
		if overflowed && len(f.queue) != 0 {
			t.Fatalf("overflowed feed still holds %d records", len(f.queue))
		}
		f.mu.Unlock()
	}
	// More traffic after the overflow is dropped, not retained.
	for i := 0; i < 10; i++ {
		if _, err := n.HandleStatus(keyedStatus(labDev, fmt.Sprintf("after-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	f.mu.Lock()
	if len(f.arena) != 0 || len(f.queue) != 0 {
		t.Fatalf("overflowed feed retains %d bytes in %d records", len(f.arena), len(f.queue))
	}
	f.mu.Unlock()

	if err := n.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if lag := n.ReplicationLag(); lag != 0 {
		t.Fatalf("lag = %d after the re-seed", lag)
	}
	requireSnapshotsEqual(t, n.primary, n.replica)
	requireReplicaLogsMatch(t, n)

	// The feed is live again: the next record arrives through memory.
	if _, err := n.HandleStatus(keyedStatus(labDev, "hb-after-reseed")); err != nil {
		t.Fatal(err)
	}
	f.mu.Lock()
	queued := len(f.queue)
	f.mu.Unlock()
	if queued != 1 {
		t.Fatalf("feed holds %d records after a re-seed and one status, want 1", queued)
	}
	if err := n.CatchUp(); err != nil {
		t.Fatal(err)
	}
	requireReplicaLogsMatch(t, n)
}

// TestShipperLockOrder runs every party to the documented lock order at
// once — cold-lane rebinds (observer under the primary's exclusive
// lock), hot-lane statuses on all four WAL shards (observer under a
// shard mutex), and CatchUp calls that each find the feed overflowed
// and so re-seed through FlushWAL while the writers keep appending — and
// requires the lot to finish under a deadline. An observer that took
// Shipper.mu, or a re-seed that held the feed's mutex across FlushWAL,
// deadlocks here.
func TestShipperLockOrder(t *testing.T) {
	ids := shardDevices(t, 2)
	hot, cold := ids[:4], ids[4:]
	n := newLabNode(t, "n0", false, ids...)
	enrollDevices(t, n, ids)

	const reseeds = 3
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, len(ids)+1)
	for _, id := range hot {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				if _, err := n.HandleStatus(fatStatus(id, fmt.Sprintf("fat-%d", i))); err != nil {
					errs <- fmt.Errorf("status %s: %w", id, err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			if err := rebind(n, cold[i%len(cold)], i); err != nil {
				errs <- fmt.Errorf("rebind: %w", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		f := &n.ship.feed
		for done := 0; done < reseeds; {
			f.mu.Lock()
			overflowed := f.overflowed
			f.mu.Unlock()
			if !overflowed {
				if len(errs) > 0 {
					return
				}
				runtime.Gosched()
				continue
			}
			if err := n.CatchUp(); err != nil {
				errs <- fmt.Errorf("catch-up: %w", err)
				return
			}
			done++
		}
	}()
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(2 * time.Minute):
		t.Fatal("writers, CatchUp and the re-seed did not finish: lock-order deadlock")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	if err := n.CatchUp(); err != nil {
		t.Fatal(err)
	}
	requireSnapshotsEqual(t, n.primary, n.replica)
	requireReplicaLogsMatch(t, n)
}

// TestNodeKillUnderConcurrentAcks: eight goroutines of keyed statuses
// with interleaved rebinds under ack-after-replicate, killed mid-run.
// Every request that returned was drained before it released the node's
// read lock, so the kill strands nothing and the promoted replica is the
// primary's last state byte for byte.
func TestNodeKillUnderConcurrentAcks(t *testing.T) {
	ids := shardDevices(t, 2)
	n := newLabNode(t, "n0", true, ids...)
	enrollDevices(t, n, ids)

	const killAfter = 400
	var acked atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, len(ids))
	for _, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				var err error
				if i%8 == 7 {
					err = rebind(n, id, i)
				} else {
					_, err = n.HandleStatus(keyedStatus(id, fmt.Sprintf("hb-%d", i)))
				}
				if errors.Is(err, errNodeDown) {
					return
				}
				if err != nil {
					errs <- fmt.Errorf("%s op %d: %w", id, i, err)
					return
				}
				acked.Add(1)
			}
		}()
	}
	for acked.Load() < killAfter && len(errs) == 0 {
		runtime.Gosched()
	}
	lost, err := n.Kill()
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if lost != 0 {
		t.Fatalf("kill lost %d acked operations under ack-after-replicate", lost)
	}
	promoted, err := n.Promote()
	if err != nil {
		t.Fatal(err)
	}
	requireSnapshotsEqual(t, n.primary, promoted)
}

// TestNodeBareHeartbeatAckAllocs: a bare heartbeat logs nothing, so
// nothing is offered and the ack check is two atomic loads — the node
// must add no allocation to the durable store's own.
func TestNodeBareHeartbeatAckAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	n := newLabNode(t, "n0", true, labDev)
	driveNode(t, n)
	req := protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: labDev}
	var err error
	direct := testing.AllocsPerRun(200, func() { _, err = n.primary.HandleStatus(req) })
	if err != nil {
		t.Fatal(err)
	}
	through := testing.AllocsPerRun(200, func() { _, err = n.HandleStatus(req) })
	if err != nil {
		t.Fatal(err)
	}
	if through > direct {
		t.Fatalf("bare heartbeat allocates %.0f times through Node.HandleStatus, %.0f through Durable.HandleStatus", through, direct)
	}
}

// TestKeyedStatusAllocations pins what a logged status costs below the
// transport: a keyed heartbeat with one reading and a stamped source
// address, logged on the primary, shipped and applied on the replica
// before the ack: it allocates nothing. The primary keeps the request's
// device ID, copies its reading into its window and its key into its
// idempotency log's arena, and records the shared bound-only reply. The
// replica decodes its own copy of the record, but reads the device ID
// and the reading's name through its service's tables, borrows the
// idempotency key and the heartbeat's source address from the record
// (protocol.HeldCall: its log copies the key, and a shadow keeps only a
// registration's address) and the readings slice from its cursor's
// arena. Fingerprinting, the entropy stream, the decoded request, the
// replies and the shipper's feed account for none. Before the replica
// borrowed the address it allocated once; before the name table and the
// borrowed key three times: its key, its reading's name and the source
// address.
func TestKeyedStatusAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	n := newLabNode(t, "n0", true, labDev)
	driveNode(t, n)
	// The warm-up fills the reading and idempotency windows and sizes the
	// feed's arenas; AllocsPerRun makes one call more than it counts.
	const warm, runs = 300, 1000
	reqs := make([]protocol.StatusRequest, warm+runs+1)
	for i := range reqs {
		reqs[i] = keyedStatus(labDev, fmt.Sprintf("hb-alloc-%d", i))
		reqs[i].SourceIP = "203.0.113.7"
		reqs[i].Readings = []protocol.Reading{{Name: "power_w", Value: float64(i), At: labClock()()}}
	}
	next := 0
	call := func() {
		if _, err := n.HandleStatus(reqs[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for next < warm {
		call()
	}
	if got := testing.AllocsPerRun(runs, call); got != 0 {
		t.Errorf("a keyed status allocates %.0f times through Node.HandleStatus, want 0", got)
	}
	requireSnapshotsEqual(t, n.primary, n.replica)
}

// coldDesign is bind_churn's posture: app-side ACL binding by user token,
// unbind by user token, bound-user checks, delegation with attenuation,
// cascade and check-at-use.
func coldDesign() core.DesignSpec {
	return core.DesignSpec{
		Name:                       "cluster-cold",
		DeviceAuth:                 core.AuthDevID,
		Binding:                    core.BindACLApp,
		UnbindForms:                []core.UnbindForm{core.UnbindDevIDUserToken},
		CheckBoundUserOnBind:       true,
		CheckBoundUserOnUnbind:     true,
		DelegationScopeAttenuation: true,
		DelegationCascadeRevoke:    true,
		DelegationCheckAtUse:       true,
	}
}

// TestColdLaneAllocations pins what each step of bind_churn's cycle
// costs below the transport on an ack-after-replicate node: logged on
// the primary, shipped and applied on the replica before the ack — all
// but the delegated read, which logs nothing. The primary keeps the
// caller's strings; the replica decodes its own copy of each record, but
// reads the device ID, the user token and the grantee through its own
// registry, token issuer and account store, a scope name through the
// delegation scope table, a command name through its name table and the
// scope list from its cursor's arena, so none of those costs it an
// allocation, and it borrows each idempotency key and source address
// from the record. Each side's delegation state is emptied in place at
// unbind and reused by the next owner: the lattice's grant and memo
// maps, its severed-grant list and a small command inbox. Each side's
// idempotency log copies the key into its arena, and the requests are
// built before the count. What is left is what the cloud mints:
//
//   - bind 0.
//   - delegate 2: the minted delegation token on each side.
//   - control 0 (a one-byte command ID is a static string).
//   - readings 0.
//   - revoke 0.
//   - unbind 0.
//
// Before the replica borrowed its source addresses and held its command
// names the counts were 1, 2, 2, 0, 0 and 1: the replica's address of
// bind, control and unbind, and its command name. Before the replica
// borrowed its keys they were 2, 3, 2, 0, 1
// and 2: bind, delegate, revoke and unbind decoded the key. Before the
// replica read held strings through the canonicaliser the
// counts were 3, 14, 5, 2, 5 and 3: its user tokens, grantees and scope
// names were copies. Before unbind emptied the delegation state in place
// they were 2, 10, 4, 2, 3 and 2: each cycle built a new lattice (2) and
// grant slot (1) on each side, a new inbox on each side, an
// authorization memo (2) on the primary, a severed-grant list on each
// side, and the replica decoded a new scope list.
func TestColdLaneAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ids := coldDevices(8)
	n := newColdNode(t, "n0", labClock(), ids...)
	coldStepAllocs(t, n, ids, [6]uint64{0, 2, 0, 0, 0, 0})
	requireSnapshotsEqual(t, n.primary, n.replica)
}

// coldDevices names n devices for the cold-cycle pins.
func coldDevices(n int) []string {
	var ids []string
	for i := 0; i < n; i++ {
		ids = append(ids, fmt.Sprintf("AA:BB:CC:00:00:%02X", i))
	}
	return ids
}

// coldStepAllocs signs up and logs in owner@lab and guest@lab through
// c, registers the devices ids, then runs bind_churn's six-step cycle
// (bind, delegate, control, delegated readings, revoke, unbind) over
// every device, warm rounds and then measured ones, each request built
// ahead of the count. It requires each step's usual count over the
// measured cycles — its mode: a device's state machine trace, the
// idempotency log and the token tables grow now and then, and that
// amortized growth lands on one step in a few dozen — to be want's.
func coldStepAllocs(t *testing.T, c transport.Cloud, ids []string, want [6]uint64) {
	t.Helper()
	const warm, measured = 17, 10
	login := func(user string) string {
		if err := c.RegisterUser(protocol.RegisterUserRequest{UserID: user, Password: "pw"}); err != nil {
			t.Fatal(err)
		}
		resp, err := c.Login(protocol.LoginRequest{UserID: user, Password: "pw"})
		if err != nil {
			t.Fatal(err)
		}
		return resp.UserToken
	}
	owner := login("owner@lab")
	login("guest@lab")
	for _, id := range ids {
		if _, err := c.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: id}); err != nil {
			t.Fatal(err)
		}
	}

	steps := []string{"bind", "delegate", "control", "readings", "revoke", "unbind"}
	type cycle struct {
		bind    protocol.BindRequest
		deleg   protocol.DelegateRequest
		control protocol.ControlRequest
		revoke  protocol.RevokeDelegationRequest
		unbind  protocol.UnbindRequest
	}
	key := 0
	next := func() string { key++; return fmt.Sprintf("cold-%06d", key) }
	mk := func(id string) cycle {
		return cycle{
			bind: protocol.BindRequest{DeviceID: id, UserToken: owner, Sender: core.SenderApp,
				SourceIP: "203.0.113.7", IdempotencyKey: next()},
			deleg: protocol.DelegateRequest{DeviceID: id, UserToken: owner, Grantee: "guest@lab",
				Scopes: []string{"control", "read"}, TTLSeconds: 3600, IdempotencyKey: next()},
			control: protocol.ControlRequest{DeviceID: id, UserToken: owner, SourceIP: "203.0.113.7",
				Command: protocol.Command{ID: "c", Name: "turn_on"}},
			revoke: protocol.RevokeDelegationRequest{DeviceID: id, UserToken: owner, Grantee: "guest@lab", IdempotencyKey: next()},
			unbind: protocol.UnbindRequest{DeviceID: id, UserToken: owner, Sender: core.SenderApp,
				SourceIP: "203.0.113.7", IdempotencyKey: next()},
		}
	}
	var samples [6]map[uint64]int
	for i := range samples {
		samples[i] = map[uint64]int{}
	}
	var ms runtime.MemStats
	run := func(cy *cycle, count bool) {
		var deleg string
		for i, step := range []func() error{
			func() error { _, err := c.HandleBind(cy.bind); return err },
			func() error {
				resp, err := c.HandleDelegate(cy.deleg)
				deleg = resp.DelegationToken
				return err
			},
			func() error { _, err := c.HandleControl(cy.control); return err },
			func() error {
				_, err := c.Readings(protocol.ReadingsRequest{DeviceID: cy.bind.DeviceID, UserToken: deleg})
				return err
			},
			func() error { return c.HandleRevokeDelegation(cy.revoke) },
			func() error { return c.HandleUnbind(cy.unbind) },
		} {
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			err := step()
			runtime.ReadMemStats(&ms)
			if err != nil {
				t.Fatalf("%s %s: %v", steps[i], cy.bind.DeviceID, err)
			}
			if count {
				samples[i][ms.Mallocs-before]++
			}
		}
	}
	for r := 0; r < warm+measured; r++ {
		cycles := make([]cycle, len(ids))
		for i, id := range ids {
			cycles[i] = mk(id)
		}
		for i := range cycles {
			run(&cycles[i], r >= warm)
		}
	}
	for i, name := range steps {
		var mode uint64
		for count, times := range samples[i] {
			if times > samples[i][mode] || (times == samples[i][mode] && count < mode) {
				mode = count
			}
		}
		if mode != want[i] {
			t.Errorf("%s allocates %d times (all counts: %v), want %d", name, mode, samples[i], want[i])
		}
	}
}
