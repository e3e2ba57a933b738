package testbed

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/iotbind/iotbind/internal/cloud"
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/retry"
	"github.com/iotbind/iotbind/internal/transport"
	"github.com/iotbind/iotbind/internal/wal"
)

func crashDesign() core.DesignSpec {
	d := fleetDesign()
	d.Name = "crash-recovery"
	return d
}

// TestCrashRecoveryGroupedFsync is the headline run: 20+ seeded
// kill-points under the grouped fsync policy, every recovery
// byte-identical to the never-crashed reference. Grouped fsync may lose
// acknowledged-but-unsynced operations to drop-style crashes; the
// harness re-executes them deterministically and the final state still
// matches.
func TestCrashRecoveryGroupedFsync(t *testing.T) {
	res, err := runCrashRecovery(crashRecoveryConfig{
		Design: crashDesign(), Ops: 80, KillPoints: 24, Seed: 1,
		Policy: wal.SyncGrouped,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 24 {
		t.Errorf("crashes = %d, want 24", res.Crashes)
	}
	if len(res.StagesHit) < 3 {
		t.Errorf("kill-points landed on only %d distinct WAL stages: %v", len(res.StagesHit), res.StagesHit)
	}
	if res.TornTails == 0 {
		t.Error("no recovery saw a torn tail; kill schedule too tame")
	}
	if res.Replayed == 0 {
		t.Error("no records were ever replayed")
	}
}

// TestCrashRecoveryPerRecordFsync pins the strong policy: fsync on
// every append means no acknowledged operation is ever lost, at any
// kill-point.
func TestCrashRecoveryPerRecordFsync(t *testing.T) {
	res, err := runCrashRecovery(crashRecoveryConfig{
		Design: crashDesign(), Ops: 60, KillPoints: 20, Seed: 2,
		Policy: wal.SyncEveryRecord,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 20 {
		t.Errorf("crashes = %d, want 20", res.Crashes)
	}
	if res.MaxLostAcked != 0 {
		t.Errorf("per-record fsync lost %d acknowledged ops", res.MaxLostAcked)
	}
}

// TestCrashRecoveryShardedPerRecord spreads the workload across eight
// devices so records land on multiple WAL shards, and the shared kill
// schedule crashes individual shard logs independently — one shard's
// tail tears while its siblings stay healthy. Per-record fsync must
// still lose zero acknowledged operations, and the recovered state must
// stay byte-identical to the never-crashed reference, with the
// per-shard watermark vector as the resume oracle.
func TestCrashRecoveryShardedPerRecord(t *testing.T) {
	res, err := runCrashRecovery(crashRecoveryConfig{
		Design: crashDesign(), Ops: 80, Devices: 8, KillPoints: 24, Seed: 4,
		Policy: wal.SyncEveryRecord,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 24 {
		t.Errorf("crashes = %d, want 24", res.Crashes)
	}
	if res.ShardsUsed < 2 {
		t.Fatalf("workload routed to %d WAL shards; the sharded schedule needs at least 2", res.ShardsUsed)
	}
	if res.MaxLostAcked != 0 {
		t.Errorf("per-record fsync lost %d acknowledged ops across independently crashed shards", res.MaxLostAcked)
	}
	if res.TornTails == 0 {
		t.Error("no shard recovered a torn tail; kill schedule too tame")
	}
	if res.Replayed == 0 {
		t.Error("no records were ever replayed")
	}
}

// TestCrashRecoveryShardedWithCheckpoints adds checkpoints to the
// multi-shard schedule: snapshots anchor all shards at once while
// individual shard logs keep crashing independently.
func TestCrashRecoveryShardedWithCheckpoints(t *testing.T) {
	res, err := runCrashRecovery(crashRecoveryConfig{
		Design: crashDesign(), Ops: 80, Devices: 6, KillPoints: 18, Seed: 5,
		Policy: wal.SyncEveryRecord, CheckpointEvery: 12, PersistIdempotency: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ShardsUsed < 2 {
		t.Fatalf("workload routed to %d WAL shards, want >= 2", res.ShardsUsed)
	}
	if res.MaxLostAcked != 0 {
		t.Errorf("per-record fsync lost %d acknowledged ops", res.MaxLostAcked)
	}
	if res.Checkpoints == 0 {
		t.Error("no checkpoint completed")
	}
}

// TestCrashRecoveryRejectsShardedGrouped pins the config guard: a
// multi-device run under grouped fsync has no valid prefix oracle and
// must be refused up front rather than diverging mid-run.
func TestCrashRecoveryRejectsShardedGrouped(t *testing.T) {
	_, err := runCrashRecovery(crashRecoveryConfig{
		Design: crashDesign(), Devices: 4, Policy: wal.SyncGrouped,
	})
	if err == nil {
		t.Fatal("multi-device grouped-fsync run was not rejected")
	}
}

// TestCrashRecoveryWithCheckpoints interleaves checkpoints with the
// kill schedule: snapshots anchor recovery mid-run, crashes mid-
// checkpoint fall back to the previous anchor, and the persisted
// idempotency log keeps keyed redeliveries at-most-once across every
// restart.
func TestCrashRecoveryWithCheckpoints(t *testing.T) {
	res, err := runCrashRecovery(crashRecoveryConfig{
		Design: crashDesign(), Ops: 80, KillPoints: 20, Seed: 3,
		Policy: wal.SyncGrouped, CheckpointEvery: 10, PersistIdempotency: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 20 {
		t.Errorf("crashes = %d, want 20", res.Crashes)
	}
	if res.Checkpoints == 0 {
		t.Error("no checkpoint completed")
	}
}

// TestRetryRedeliversAcrossRestart is the restart-aware redelivery
// path end to end: an agent's retry wrapper holds a Switchable, the
// first delivery dies with the crashing cloud, the harness swaps in the
// recovered instance, and the retry layer's redelivery lands on it —
// exactly once, because the idempotency log was persisted.
func TestRetryRedeliversAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	design := crashDesign()
	registry := cloud.NewRegistry()
	const deviceID = "AA:BB:CC:0F:00:02"
	if err := registry.Add(cloud.DeviceRecord{ID: deviceID, FactorySecret: "fs", Model: design.Name}); err != nil {
		t.Fatal(err)
	}
	svcOpts := []cloud.Option{cloud.WithPersistentIdempotency()}

	var mu sync.Mutex
	crashNext := false
	fp := func(stage wal.Stage) wal.Crash {
		mu.Lock()
		defer mu.Unlock()
		if crashNext && stage == wal.StageFramePayload {
			crashNext = false
			return wal.CrashKeep
		}
		return wal.CrashNone
	}
	open := func() *cloud.Durable {
		d, err := cloud.OpenDurable(dir, design, registry, cloud.DurableOptions{
			WAL:            wal.Options{Policy: wal.SyncEveryRecord, Failpoint: fp},
			ServiceOptions: svcOpts,
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d := open()
	defer func() { d.Close() }()

	sw := transport.NewSwitchable(d)
	rt := retry.Wrap(sw, retry.Policy{MaxAttempts: 4, Sleep: func(time.Duration) {}})
	defer rt.Close()

	if err := rt.RegisterUser(protocol.RegisterUserRequest{UserID: "u@x", Password: "pw"}); err != nil {
		t.Fatal(err)
	}
	login, err := rt.Login(protocol.LoginRequest{UserID: "u@x", Password: "pw"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: deviceID}); err != nil {
		t.Fatal(err)
	}

	// Arrange the crash on the next append, and recover in the retry
	// wrapper's error path: the Retryable hook doubles as the harness's
	// "the operator restarted the cloud" moment, swapping the recovered
	// instance in before the redelivery fires.
	mu.Lock()
	crashNext = true
	mu.Unlock()
	rt2 := retry.Wrap(sw, retry.Policy{
		MaxAttempts: 4,
		Sleep:       func(time.Duration) {},
		Retryable: func(err error) bool {
			if errors.Is(err, wal.ErrCrashed) {
				d.Close()
				d = open()
				sw.Swap(d)
				return true
			}
			return retry.DefaultRetryable(err)
		},
	})
	defer rt2.Close()

	if _, err := rt2.HandleBind(protocol.BindRequest{DeviceID: deviceID, UserToken: login.UserToken}); err != nil {
		t.Fatalf("bind did not survive the restart: %v", err)
	}
	state, err := sw.ShadowState(protocol.ShadowStateRequest{DeviceID: deviceID})
	if err != nil {
		t.Fatal(err)
	}
	if state.BoundUser != "u@x" {
		t.Errorf("recovered bound user = %q, want u@x", state.BoundUser)
	}
	if got := d.Service().Stats().BindsAccepted; got != 1 {
		t.Errorf("accepted binds = %d, want exactly 1 across the redelivery", got)
	}
}
