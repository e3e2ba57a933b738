package testbed

import (
	"errors"
	"fmt"
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

// crashRecoveryConfig parameterizes a crash-fault run: a deterministic
// workload of logged operations driven against a durable cloud whose
// WAL is armed with seeded kill-points, each crash followed by a
// restart that must recover exactly the durable prefix.
type crashRecoveryConfig struct {
	// Design is the vendor design under test.
	Design core.DesignSpec
	// Ops is the workload length after setup (default 60). Every
	// operation is a logged mutation, so operation index maps 1:1 onto
	// WAL LSNs and the per-shard watermark vector is the resume oracle.
	Ops int
	// Devices spreads the workload across N devices (default 1). With
	// more than one device the records land on multiple WAL shards and
	// the shared kill schedule crashes whichever shard log hits its
	// countdown — individual shard logs die independently while their
	// siblings stay healthy. Multi-device runs require
	// Policy == wal.SyncEveryRecord: the resume oracle needs the
	// durable records to be a prefix of the executed workload, and only
	// per-record fsync guarantees that when one shard's tail can be
	// lost independently of the others.
	Devices int
	// KillPoints is how many seeded crashes to inject (default 20).
	KillPoints int
	// Seed drives the kill schedule: the gap to the next crash, the
	// frame/sync stage it lands on, and whether the torn tail keeps or
	// drops the unsynced suffix.
	Seed int64
	// Policy is the WAL fsync policy (default grouped).
	Policy wal.SyncPolicy
	// GroupEvery overrides the grouped-policy fsync interval (default 2,
	// so sync-stage kill-points occur at workload frequency).
	GroupEvery int
	// SegmentSize overrides the WAL segment size (default 4 KiB, small
	// enough that rotations happen mid-run).
	SegmentSize int
	// PersistIdempotency opts the cloud into the persisted per-shadow
	// idempotency log, making keyed redeliveries at-most-once across
	// restarts.
	PersistIdempotency bool
	// CheckpointEvery checkpoints the victim every N workload operations
	// (0 disables). Checkpoints race the kill schedule like any other
	// durable work: a crash mid-checkpoint must fall back cleanly.
	CheckpointEvery int
}

// crashRecoveryResult reports a crash-fault run.
type crashRecoveryResult struct {
	// Ops is the workload length executed.
	Ops int
	// Crashes is how many kill-points actually fired.
	Crashes int
	// TornTails counts shard logs recovered with a torn (truncated)
	// frame at their tail, summed across all recoveries.
	TornTails int
	// DroppedTails counts recoveries whose durable log was shorter than
	// the acknowledged prefix — unsynced records lost by a drop-style
	// crash, re-executed by the harness.
	DroppedTails int
	// MaxLostAcked is the largest number of acknowledged operations any
	// single crash lost. Zero under SyncEveryRecord.
	MaxLostAcked uint64
	// Checkpoints counts checkpoints that completed.
	Checkpoints int
	// Replayed is the total number of WAL records re-executed across all
	// recoveries.
	Replayed int
	// StagesHit counts crashes per WAL stage.
	StagesHit map[wal.Stage]int
	// ShardsUsed is how many distinct WAL shards the workload devices
	// routed to — the blast surface the kill schedule sampled from.
	ShardsUsed int
}

// crashWorkload builds the operation list: a rotation of control,
// data-push, share and keyed draining heartbeats, every one of them a
// logged mutation, round-robined across the devices.
func crashWorkload(ops int, devices []string, userToken string, now func() time.Time) []crashOp {
	list := make([]crashOp, ops)
	for i := range list {
		i := i
		deviceID := devices[i%len(devices)]
		switch i % 5 {
		case 0:
			list[i] = func(c transport.Cloud) error {
				_, err := c.HandleControl(protocol.ControlRequest{
					DeviceID: deviceID, UserToken: userToken,
					Command: protocol.Command{ID: fmt.Sprintf("cmd-%d", i), Name: "toggle"},
				})
				return err
			}
		case 1:
			list[i] = func(c transport.Cloud) error {
				return c.PushUserData(protocol.PushUserDataRequest{
					DeviceID: deviceID, UserToken: userToken,
					Data: protocol.UserData{Kind: "schedule", Body: fmt.Sprintf("slot-%d", i)},
				})
			}
		case 3:
			list[i] = func(c transport.Cloud) error {
				return c.HandleShare(protocol.ShareRequest{
					DeviceID: deviceID, UserToken: userToken,
					Guest: "guest@crash.example", Revoke: (i/5)%2 == 1,
				})
			}
		default: // 2, 4: keyed heartbeats that drain and carry a reading
			list[i] = func(c transport.Cloud) error {
				_, err := c.HandleStatus(protocol.StatusRequest{
					Kind: protocol.StatusHeartbeat, DeviceID: deviceID,
					IdempotencyKey: fmt.Sprintf("op-%d", i),
					Readings:       []protocol.Reading{{Name: "power_w", Value: float64(i), At: now()}},
				})
				return err
			}
		}
	}
	return list
}

// crashSetup runs the uncounted prelude — accounts, login, then a
// registration and bind per device — and returns the victim user's
// token. 3 + 2×len(devices) WAL records, matching crashSetupRecords.
func crashSetup(c transport.Cloud, devices []string) (string, error) {
	if err := c.RegisterUser(protocol.RegisterUserRequest{UserID: "victim@crash.example", Password: "pw"}); err != nil {
		return "", err
	}
	if err := c.RegisterUser(protocol.RegisterUserRequest{UserID: "guest@crash.example", Password: "pw"}); err != nil {
		return "", err
	}
	login, err := c.Login(protocol.LoginRequest{UserID: "victim@crash.example", Password: "pw"})
	if err != nil {
		return "", err
	}
	for i, deviceID := range devices {
		if _, err := c.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: deviceID}); err != nil {
			return "", err
		}
		if _, err := c.HandleBind(protocol.BindRequest{
			DeviceID: deviceID, UserToken: login.UserToken, IdempotencyKey: fmt.Sprintf("setup-bind-%d", i),
		}); err != nil {
			return "", err
		}
	}
	return login.UserToken, nil
}

func crashSetupRecords(devices int) int { return 3 + 2*devices }

// runCrashRecovery drives the configured workload against a durable
// cloud under seeded kill-points, restarting after every crash, and
// proves the final recovered state is byte-identical to a never-crashed
// reference executing the same workload with the same entropy.
//
// The loop itself — kill, restart, resume from the shard watermark
// vector, final byte-compare — is runKillLoop's.
func runCrashRecovery(cfg crashRecoveryConfig) (crashRecoveryResult, error) {
	if cfg.Ops <= 0 {
		cfg.Ops = 60
	}
	if cfg.Devices <= 0 {
		cfg.Devices = 1
	}
	if cfg.KillPoints <= 0 {
		cfg.KillPoints = 20
	}
	if cfg.GroupEvery <= 0 {
		cfg.GroupEvery = 2
	}
	if cfg.SegmentSize <= 0 {
		cfg.SegmentSize = 4 << 10
	}
	res := crashRecoveryResult{Ops: cfg.Ops}
	fail := func(err error) (crashRecoveryResult, error) {
		return res, fmt.Errorf("testbed: crash recovery: %w", err)
	}
	if cfg.Devices > 1 && cfg.Policy != wal.SyncEveryRecord {
		return fail(fmt.Errorf("multi-device runs require wal.SyncEveryRecord: grouped fsync can lose one shard's acknowledged tail independently, leaving a durable set that is not a workload prefix"))
	}

	devices := make([]string, cfg.Devices)
	registry := cloud.NewRegistry()
	for i := range devices {
		devices[i] = fmt.Sprintf("AA:BB:CC:0F:01:%02X", i)
		if err := registry.Add(cloud.DeviceRecord{ID: devices[i], FactorySecret: "factory-secret-crash", Model: cfg.Design.Name}); err != nil {
			return fail(err)
		}
	}
	out, err := runKillLoop(killLoop{
		design: cfg.Design, registry: registry, devices: devices,
		ops: cfg.Ops, killPoints: cfg.KillPoints, seed: cfg.Seed,
		wal:                wal.Options{Policy: cfg.Policy, GroupEvery: cfg.GroupEvery, SegmentSize: cfg.SegmentSize},
		persistIdempotency: cfg.PersistIdempotency, checkpointEvery: cfg.CheckpointEvery,
		setup: func(c transport.Cloud) ([]string, error) {
			token, err := crashSetup(c, devices)
			return []string{token}, err
		},
		setupRecords: crashSetupRecords(cfg.Devices),
		workload: func(tokens []string, now func() time.Time) []crashOp {
			return crashWorkload(cfg.Ops, devices, tokens[0], now)
		},
	})
	res.Crashes, res.TornTails, res.DroppedTails, res.MaxLostAcked = out.crashes, out.tornTails, out.droppedTails, out.maxLostAcked
	res.Checkpoints, res.Replayed, res.StagesHit, res.ShardsUsed = out.checkpoints, out.replayed, out.stagesHit, out.shardsUsed
	if err != nil {
		return fail(err)
	}
	return res, nil
}
