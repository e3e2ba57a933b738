package testbed

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/iotbind/iotbind/internal/cloud"
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/transport"
	"github.com/iotbind/iotbind/internal/wal"
)

// killer is the seeded failpoint: armed with a countdown, it crashes
// the WAL at the n-th staged event after arming. All shard logs share
// it, so the crash lands on whichever shard's log is active when the
// countdown expires — siblings keep their healthy tails.
type killer struct {
	mu        sync.Mutex
	armed     bool
	countdown int
	crash     wal.Crash
	lastStage wal.Stage
}

func (k *killer) fail(stage wal.Stage) wal.Crash {
	k.mu.Lock()
	defer k.mu.Unlock()
	if !k.armed {
		return wal.CrashNone
	}
	k.countdown--
	if k.countdown > 0 {
		return wal.CrashNone
	}
	k.armed = false
	k.lastStage = stage
	return k.crash
}

func (k *killer) arm(countdown int, crash wal.Crash) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.armed = true
	k.countdown = countdown
	k.crash = crash
}

func (k *killer) disarm() {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.armed = false
}

// killLoop is one crash-fault run: what differs between the harnesses
// built on runKillLoop.
type killLoop struct {
	design   core.DesignSpec
	registry *cloud.Registry
	// devices are the workload's devices: operation i addresses
	// devices[i%len(devices)], which fixes the WAL shard its record
	// lands on.
	devices []string
	// ops is the workload length, killPoints how many seeded crashes to
	// inject, seed what drives their schedule.
	ops, killPoints int
	seed            int64
	// wal configures the victim's shard logs; the loop installs the
	// failpoint.
	wal                wal.Options
	persistIdempotency bool
	checkpointEvery    int
	// setup runs the uncounted prelude and returns the tokens the
	// workload needs; it must append exactly setupRecords WAL records.
	setup        func(transport.Cloud) ([]string, error)
	setupRecords int
	// workload builds the ops operations from setup's tokens. Every
	// operation appends exactly one WAL record, rejections included.
	workload func(tokens []string, now func() time.Time) []crashOp
	// inspect, when set, reads what the harness reports from the
	// recovered store once it has matched the reference.
	inspect func(victim *cloud.Durable, tokens []string) error
}

// crashOp is one deterministic workload operation, addressed by index.
type crashOp func(c transport.Cloud) error

// killOutcome reports a run.
type killOutcome struct {
	crashes, tornTails, droppedTails int
	maxLostAcked                     uint64
	checkpoints, replayed            int
	stagesHit                        map[wal.Stage]int
	shardsUsed                       int
}

// runKillLoop drives the workload against a durable cloud under seeded
// kill-points, restarting after every crash, and proves the final
// recovered state is byte-identical to a never-crashed reference
// executing the same workload with the same entropy.
//
// The resume oracle is the WAL shard watermark vector. The workload is
// sequential and every operation appends exactly one record, so
// operation i's record always carries LSN setup+i+1 — re-executions
// included, because a lost allocation never survives a restart — and
// lands on the shard its device routes to. After a restart, operation i
// is durable iff that LSN is at or below its shard's recovered
// watermark (or the restored snapshot's anchor). The loop resumes at
// the first non-durable operation: everything durable replayed (never
// re-executed — that would double-apply), everything lost with a torn
// or dropped shard tail re-executes, drawing the same per-LSN entropy
// the lost execution drew. The loop additionally asserts the durable
// set is a prefix of the executed workload — the invariant per-record
// fsync must uphold even when individual shard logs crash
// independently. Agents keep a single transport.Switchable across
// restarts, the way a reconnecting client keeps its retry wrapper.
func runKillLoop(cfg killLoop) (killOutcome, error) {
	var out killOutcome
	out.stagesHit = make(map[wal.Stage]int)
	root, err := os.MkdirTemp("", "killloop-*")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(root)

	clock := func() time.Time { return labEpoch }
	var svcOpts []cloud.Option
	if cfg.persistIdempotency {
		svcOpts = append(svcOpts, cloud.WithPersistentIdempotency())
	}

	// The victim first: opening it mints the master seed the reference
	// must share for replayed entropy (tokens, nonces) to line up.
	kill := &killer{}
	victimDir := filepath.Join(root, "victim")
	victimWAL := cfg.wal
	victimWAL.Failpoint = kill.fail
	openVictim := func() (*cloud.Durable, error) {
		return cloud.OpenDurable(victimDir, cfg.design, cfg.registry, cloud.DurableOptions{
			Clock: clock, WAL: victimWAL, ServiceOptions: svcOpts,
		})
	}
	victim, err := openVictim()
	if err != nil {
		return out, err
	}
	defer func() { victim.Close() }()

	// Each operation's WAL shard is pinned by the device routing and the
	// meta-persisted shard count, so the oracle computes it once.
	opShard := make([]int, cfg.ops)
	shardSet := make(map[int]bool)
	for i := range opShard {
		opShard[i] = victim.WALShardOf(cfg.devices[i%len(cfg.devices)])
		shardSet[opShard[i]] = true
	}
	out.shardsUsed = len(shardSet)

	refDir := filepath.Join(root, "ref")
	if err := os.MkdirAll(refDir, 0o755); err != nil {
		return out, err
	}
	meta, err := os.ReadFile(filepath.Join(victimDir, "meta.json"))
	if err != nil {
		return out, err
	}
	if err := os.WriteFile(filepath.Join(refDir, "meta.json"), meta, 0o644); err != nil {
		return out, err
	}
	ref, err := cloud.OpenDurable(refDir, cfg.design, cfg.registry, cloud.DurableOptions{
		Clock:          clock,
		WAL:            wal.Options{Policy: wal.SyncOff},
		ServiceOptions: svcOpts,
	})
	if err != nil {
		return out, err
	}
	defer ref.Close()

	// Reference run: the whole workload, no faults. App-level rejections
	// are part of the workload on both sides.
	refTokens, err := cfg.setup(ref)
	if err != nil {
		return out, err
	}
	for _, op := range cfg.workload(refTokens, clock) {
		_ = op(ref)
	}

	// Victim setup runs before the kill schedule arms.
	sw := transport.NewSwitchable(victim)
	tokens, err := cfg.setup(sw)
	if err != nil {
		return out, err
	}
	for i := range tokens {
		if tokens[i] != refTokens[i] {
			return out, fmt.Errorf("replay determinism broken: victim token %d is %q, the reference's %q", i, tokens[i], refTokens[i])
		}
	}
	workload := cfg.workload(tokens, clock)

	rng := rand.New(rand.NewSource(cfg.seed))
	armNext := func() {
		crash := wal.CrashKeep
		if rng.Intn(2) == 1 {
			crash = wal.CrashDrop
		}
		kill.arm(1+rng.Intn(6), crash)
	}
	armNext()

	// restart reopens the crashed victim, then returns the first
	// workload index to (re-)execute, given that operations
	// 0..executed-1 were acknowledged before the crash. The crashed
	// operation itself (index `executed`, never acknowledged) may still
	// be durable — a keep-style crash after the frame reached the file —
	// in which case it too is skipped: its record already replayed.
	restart := func(executed int) (int, error) {
		out.crashes++
		if err := victim.Close(); err != nil {
			return 0, err
		}
		v, err := openVictim()
		if err != nil {
			return 0, err
		}
		victim = v
		sw.Swap(victim)
		rec := victim.Recovery()
		out.replayed += rec.Replayed
		out.tornTails += rec.TornTails()
		out.stagesHit[kill.lastStage]++
		if out.crashes < cfg.killPoints {
			armNext()
		} else {
			kill.disarm()
		}

		marks := victim.ShardWatermarks()
		durable := func(j int) bool {
			lsn := uint64(cfg.setupRecords + j + 1)
			return lsn <= rec.SnapshotLSN || lsn <= marks[opShard[j]]
		}
		resume := 0
		for resume <= executed && resume < cfg.ops && durable(resume) {
			resume++
		}
		for j := resume + 1; j <= executed && j < cfg.ops; j++ {
			if durable(j) {
				return 0, fmt.Errorf("durable records are not a workload prefix: op %d survived on shard %d but op %d was lost from shard %d",
					j, opShard[j], resume, opShard[resume])
			}
		}
		if resume < executed {
			out.droppedTails++
			if lost := uint64(executed - resume); lost > out.maxLostAcked {
				out.maxLostAcked = lost
			}
		}
		return resume, nil
	}

	i := 0
	for i < cfg.ops {
		err := workload[i](sw)
		if errors.Is(err, wal.ErrCrashed) {
			if i, err = restart(i); err != nil {
				return out, err
			}
			continue
		}
		i++
		if cfg.checkpointEvery > 0 && i%cfg.checkpointEvery == 0 {
			switch err := victim.Checkpoint(); {
			case err == nil:
				out.checkpoints++
			case errors.Is(err, wal.ErrCrashed):
				if i, err = restart(i); err != nil {
					return out, err
				}
			default:
				return out, err
			}
		}
	}
	kill.disarm()

	// One final restart through the full recovery path, then the
	// verdict: the recovered state must encode byte-identically to the
	// never-crashed reference.
	if err := victim.Close(); err != nil {
		return out, err
	}
	v, err := openVictim()
	if err != nil {
		return out, err
	}
	victim = v
	out.replayed += victim.Recovery().Replayed

	var want, got bytes.Buffer
	if err := cloud.EncodeSnapshot(&want, ref.Snapshot()); err != nil {
		return out, err
	}
	if err := cloud.EncodeSnapshot(&got, victim.Snapshot()); err != nil {
		return out, err
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		return out, fmt.Errorf("recovered state diverged from the never-crashed reference after %d crashes:\nreference:\n%s\nrecovered:\n%s",
			out.crashes, want.Bytes(), got.Bytes())
	}
	if cfg.inspect != nil {
		return out, cfg.inspect(victim, tokens)
	}
	return out, nil
}
