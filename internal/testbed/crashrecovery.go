package testbed

import (
	"fmt"
	"time"

	"github.com/iotbind/iotbind/internal/cloud"
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/transport"
	"github.com/iotbind/iotbind/internal/wal"
)

// CrashRecoveryConfig parameterizes a crash-fault run: a deterministic
// workload of logged operations driven against a durable cloud whose
// WAL is armed with seeded kill-points, each crash followed by a
// restart that must recover exactly the durable prefix.
type CrashRecoveryConfig struct {
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

// CrashRecoveryResult reports a crash-fault run.
type CrashRecoveryResult struct {
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

// crashOp is one deterministic workload operation, addressed by index.
type crashOp func(c transport.Cloud) error

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

// RunCrashRecovery drives the configured workload against a durable
// cloud under seeded kill-points, restarting after every crash, and
// proves the final recovered state is byte-identical to a never-crashed
// reference executing the same workload with the same entropy.
//
// The loop itself — kill, restart, resume from the shard watermark
// vector, final byte-compare — is runKillLoop's.
func RunCrashRecovery(cfg CrashRecoveryConfig) (CrashRecoveryResult, error) {
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
	res := CrashRecoveryResult{Ops: cfg.Ops}
	fail := func(err error) (CrashRecoveryResult, error) {
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
