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

// ShareStormConfig parameterizes a share/revoke storm: a deterministic
// churn of delegation grants, cascade revocations, share flips and
// re-delegation attempts interleaved with owner and delegated control
// traffic, driven against a durable cloud whose WAL is armed with
// seeded kill-points.
type ShareStormConfig struct {
	// Design is the vendor design under test. The delegation policy
	// flags shape which storm operations are accepted; acceptance and
	// rejection are both part of the deterministic workload.
	Design core.DesignSpec
	// Ops is the storm length after setup (default 120). Every
	// operation is a logged mutation — one WAL record each, rejections
	// included — so operation index maps 1:1 onto LSNs and the shard
	// watermark vector is the resume oracle (runKillLoop).
	Ops int
	// Guests is how many guest accounts churn through the lattice
	// (default 3; minimum 2 so re-delegation chains form).
	Guests int
	// KillPoints is how many seeded mid-run kills to inject (default 16).
	KillPoints int
	// Seed drives the kill schedule.
	Seed int64
	// Policy is the WAL fsync policy (default wal.SyncEveryRecord — the
	// storm's acceptance bar is MaxLostAcked == 0, which only per-record
	// fsync guarantees).
	Policy wal.SyncPolicy
	// SegmentSize overrides the WAL segment size (default 4 KiB).
	SegmentSize int
	// CheckpointEvery checkpoints the victim every N storm operations
	// (0 disables); a kill mid-checkpoint must fall back cleanly.
	CheckpointEvery int
	// PersistIdempotency opts into the persisted idempotency log, so the
	// storm's keyed grants and revocations stay at-most-once across
	// restarts.
	PersistIdempotency bool
}

// ShareStormResult reports a share-storm run.
type ShareStormResult struct {
	// Ops is the storm length executed.
	Ops int
	// Crashes is how many kill-points actually fired.
	Crashes int
	// TornTails counts shard logs recovered with a torn tail frame.
	TornTails int
	// DroppedTails counts recoveries that lost acknowledged operations.
	DroppedTails int
	// MaxLostAcked is the largest number of acknowledged operations any
	// single kill lost. The storm's acceptance bar is zero.
	MaxLostAcked uint64
	// Checkpoints counts checkpoints that completed.
	Checkpoints int
	// Replayed is the total number of WAL records re-executed across
	// all recoveries.
	Replayed int
	// Granted, Revoked and Rejected are the cloud's delegation counters
	// after the final recovery — the storm's accepted/refused split.
	Granted, Revoked, Rejected int64
	// FinalGrants is how many live grants the lattice holds at the end.
	FinalGrants int
}

// stormScopes is the full grant the storm's owner hands out; guests
// re-delegate narrower (or, under permissive designs, try to widen).
var stormScopes = []string{"control", "read", "share"}

// stormWorkload builds the storm's operation list: grants, revocations,
// share flips, re-delegation attempts and control traffic, every one a
// logged mutation. tokens[0] is the owner, tokens[1:] the guests;
// guests[i] names the account behind tokens[i+1].
func stormWorkload(ops int, deviceID string, guests []string, tokens []string) []crashOp {
	owner := tokens[0]
	list := make([]crashOp, ops)
	for i := range list {
		i := i
		g := i % len(guests)
		switch i % 8 {
		case 0: // owner grants (replacing any standing grant)
			list[i] = func(c transport.Cloud) error {
				_, err := c.HandleDelegate(protocol.DelegateRequest{
					DeviceID: deviceID, UserToken: owner, Grantee: guests[g],
					Scopes: stormScopes, Depth: 1,
					IdempotencyKey: fmt.Sprintf("storm-deleg-%d", i),
				})
				return err
			}
		case 1, 5: // owner control rides through the churn
			list[i] = func(c transport.Cloud) error {
				_, err := c.HandleControl(protocol.ControlRequest{
					DeviceID: deviceID, UserToken: owner,
					Command: protocol.Command{ID: fmt.Sprintf("storm-cmd-%d", i), Name: "toggle"},
				})
				return err
			}
		case 2: // guest re-delegates to the next guest (depth permitting)
			list[i] = func(c transport.Cloud) error {
				_, err := c.HandleDelegate(protocol.DelegateRequest{
					DeviceID: deviceID, UserToken: tokens[1+g],
					Grantee:        guests[(g+1)%len(guests)],
					Scopes:         []string{"control", "read"},
					IdempotencyKey: fmt.Sprintf("storm-redeleg-%d", i),
				})
				return err
			}
		case 3: // delegated control with the guest's own user token
			list[i] = func(c transport.Cloud) error {
				_, err := c.HandleControl(protocol.ControlRequest{
					DeviceID: deviceID, UserToken: tokens[1+g],
					Command: protocol.Command{ID: fmt.Sprintf("storm-gcmd-%d", i), Name: "toggle"},
				})
				return err
			}
		case 4: // owner revokes (cascading under strict designs)
			list[i] = func(c transport.Cloud) error {
				return c.HandleRevokeDelegation(protocol.RevokeDelegationRequest{
					DeviceID: deviceID, UserToken: owner, Grantee: guests[(g+1)%len(guests)],
					IdempotencyKey: fmt.Sprintf("storm-revoke-%d", i),
				})
			}
		case 6: // legacy share flip rides the same lattice
			list[i] = func(c transport.Cloud) error {
				return c.HandleShare(protocol.ShareRequest{
					DeviceID: deviceID, UserToken: owner,
					Guest: guests[g], Revoke: (i/8)%2 == 1,
				})
			}
		default: // 7: keyed heartbeat drains the queued commands
			list[i] = func(c transport.Cloud) error {
				_, err := c.HandleStatus(protocol.StatusRequest{
					Kind: protocol.StatusHeartbeat, DeviceID: deviceID,
					IdempotencyKey: fmt.Sprintf("storm-hb-%d", i),
				})
				return err
			}
		}
	}
	return list
}

// stormSetup runs the uncounted prelude — owner and guest accounts, a
// login each, one device registration and the owner's bind — returning
// the login tokens (owner first). 2×(1+guests) + 2 WAL records.
func stormSetup(c transport.Cloud, deviceID string, guests []string) ([]string, error) {
	users := append([]string{"owner@storm.example"}, guests...)
	for _, u := range users {
		if err := c.RegisterUser(protocol.RegisterUserRequest{UserID: u, Password: "pw"}); err != nil {
			return nil, err
		}
	}
	tokens := make([]string, len(users))
	for i, u := range users {
		login, err := c.Login(protocol.LoginRequest{UserID: u, Password: "pw"})
		if err != nil {
			return nil, err
		}
		tokens[i] = login.UserToken
	}
	if _, err := c.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: deviceID}); err != nil {
		return nil, err
	}
	if _, err := c.HandleBind(protocol.BindRequest{
		DeviceID: deviceID, UserToken: tokens[0], IdempotencyKey: "storm-setup-bind",
	}); err != nil {
		return nil, err
	}
	return tokens, nil
}

func stormSetupRecords(guests int) int { return 2*(1+guests) + 2 }

// RunShareStorm drives a share/revoke storm interleaved with control
// traffic against a durable cloud, kills it mid-run at seeded points,
// and proves the final recovered state is byte-identical to a reference
// that executed the same storm with the same entropy and no kills — the
// storm-free ordering. Under wal.SyncEveryRecord the run must also lose
// no acknowledged operation (MaxLostAcked == 0): a revocation the owner
// saw acknowledged is never resurrected by a crash, and a grant is
// never silently lost.
func RunShareStorm(cfg ShareStormConfig) (ShareStormResult, error) {
	if cfg.Ops <= 0 {
		cfg.Ops = 120
	}
	if cfg.Guests <= 0 {
		cfg.Guests = 3
	}
	if cfg.Guests < 2 {
		cfg.Guests = 2
	}
	if cfg.KillPoints <= 0 {
		cfg.KillPoints = 16
	}
	if cfg.SegmentSize <= 0 {
		cfg.SegmentSize = 4 << 10
	}
	res := ShareStormResult{Ops: cfg.Ops}
	fail := func(err error) (ShareStormResult, error) {
		return res, fmt.Errorf("testbed: share storm: %w", err)
	}

	const deviceID = "AA:BB:CC:0F:02:01"
	registry := cloud.NewRegistry()
	if err := registry.Add(cloud.DeviceRecord{ID: deviceID, FactorySecret: "factory-secret-storm", Model: cfg.Design.Name}); err != nil {
		return fail(err)
	}
	guests := make([]string, cfg.Guests)
	for i := range guests {
		guests[i] = fmt.Sprintf("guest-%d@storm.example", i)
	}
	// One device: every storm record lands on its shard, so the resume
	// oracle is a single watermark.
	out, err := runKillLoop(killLoop{
		design: cfg.Design, registry: registry, devices: []string{deviceID},
		ops: cfg.Ops, killPoints: cfg.KillPoints, seed: cfg.Seed,
		wal:                wal.Options{Policy: cfg.Policy, SegmentSize: cfg.SegmentSize},
		persistIdempotency: cfg.PersistIdempotency, checkpointEvery: cfg.CheckpointEvery,
		setup:        func(c transport.Cloud) ([]string, error) { return stormSetup(c, deviceID, guests) },
		setupRecords: stormSetupRecords(cfg.Guests),
		workload: func(tokens []string, _ func() time.Time) []crashOp {
			return stormWorkload(cfg.Ops, deviceID, guests, tokens)
		},
		// The recovered state — lattice, tokens, queues, idempotency
		// log, stats — matched the storm-free reference; report its split.
		inspect: func(victim *cloud.Durable, tokens []string) error {
			stats := victim.Service().Stats()
			res.Granted = stats.DelegationsGranted
			res.Revoked = stats.DelegationsRevoked
			res.Rejected = stats.DelegationsRejected
			list, err := victim.ListDelegations(protocol.ListDelegationsRequest{DeviceID: deviceID, UserToken: tokens[0]})
			res.FinalGrants = len(list.Grants)
			return err
		},
	})
	res.Crashes, res.TornTails, res.DroppedTails, res.MaxLostAcked = out.crashes, out.tornTails, out.droppedTails, out.maxLostAcked
	res.Checkpoints, res.Replayed = out.checkpoints, out.replayed
	if err != nil {
		return fail(err)
	}
	return res, nil
}
