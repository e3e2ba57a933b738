package cloud

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/wal"
	"github.com/iotbind/iotbind/internal/wirecodec"
)

// newDurable opens a durable cloud in dir with a fixed manual clock and
// one registered device, under the baseline devID design.
func newDurable(t *testing.T, dir string, opts DurableOptions) (*Durable, *testClock) {
	t.Helper()
	return newDurableDesign(t, dir, devIDDesign(), opts)
}

// newDurableDesign is newDurable under an explicit design spec.
func newDurableDesign(t *testing.T, dir string, design core.DesignSpec, opts DurableOptions) (*Durable, *testClock) {
	t.Helper()
	clock := newTestClock()
	if opts.Clock == nil {
		opts.Clock = clock.Now
	}
	reg := NewRegistry()
	if err := reg.Add(DeviceRecord{ID: testDevice, FactorySecret: testSecret, Model: "plug"}); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDurable(dir, design, reg, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d, clock
}

// durableLogin registers and logs in a user through the durable layer.
func durableLogin(t *testing.T, d *Durable, user, pw string) string {
	t.Helper()
	if err := d.RegisterUser(protocol.RegisterUserRequest{UserID: user, Password: pw}); err != nil {
		t.Fatal(err)
	}
	resp, err := d.Login(protocol.LoginRequest{UserID: user, Password: pw})
	if err != nil {
		t.Fatal(err)
	}
	return resp.UserToken
}

// encodeState renders a durable cloud's state for byte-level comparison.
func encodeState(t *testing.T, d *Durable) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, d.Snapshot()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// encodeStateNoStats renders state with the activity counters zeroed:
// counters moved by unlogged bare heartbeats are, by design, durable
// only as of the last checkpoint, so workloads containing bare
// heartbeats compare everything but Stats byte-for-byte.
func encodeStateNoStats(t *testing.T, d *Durable) []byte {
	t.Helper()
	snap := d.Snapshot()
	snap.Stats = Stats{}
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runLoggedWorkload drives every logged operation type through the
// durable cloud: account creation, logins, registration, bind, control,
// data push, sharing, keyed heartbeats (drains + readings), a batch and
// an unbind/rebind cycle. Only logged operations appear, so replay
// rebuilds the state exactly.
func runLoggedWorkload(t *testing.T, d *Durable, clock *testClock) {
	t.Helper()
	victim := durableLogin(t, d, "victim@example.com", "pw-victim")
	durableLogin(t, d, "guest@example.com", "pw-guest")

	if _, err := d.HandleStatus(protocol.StatusRequest{
		Kind: protocol.StatusRegister, DeviceID: testDevice, Firmware: "1.0", Model: "plug",
	}); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Second)
	if _, err := d.HandleBind(protocol.BindRequest{
		DeviceID: testDevice, UserToken: victim, IdempotencyKey: "bind-1", SourceIP: "10.0.0.2",
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.HandleControl(protocol.ControlRequest{
		DeviceID: testDevice, UserToken: victim,
		Command: protocol.Command{ID: "c1", Name: "turn_on", Args: map[string]string{"level": "3"}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.PushUserData(protocol.PushUserDataRequest{
		DeviceID: testDevice, UserToken: victim,
		Data: protocol.UserData{Kind: "schedule", Body: "on@dusk"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.HandleShare(protocol.ShareRequest{
		DeviceID: testDevice, UserToken: victim, Guest: "guest@example.com",
	}); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Second)
	resp, err := d.HandleStatus(protocol.StatusRequest{
		Kind: protocol.StatusHeartbeat, DeviceID: testDevice, IdempotencyKey: "hb-1",
		Readings: []protocol.Reading{{Name: "power_w", Value: 3.5, At: clock.Now()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Commands) != 1 || len(resp.UserData) != 1 {
		t.Fatalf("keyed heartbeat drained %d commands, %d data items; want 1, 1", len(resp.Commands), len(resp.UserData))
	}
	clock.Advance(time.Second)
	if _, err := d.HandleStatusBatch(protocol.StatusBatchRequest{
		SourceIP: "10.0.0.9",
		Items: []protocol.StatusRequest{
			{Kind: protocol.StatusHeartbeat, DeviceID: testDevice, IdempotencyKey: "hb-2"},
			{Kind: protocol.StatusHeartbeat, DeviceID: testDevice, IdempotencyKey: "hb-3",
				Readings: []protocol.Reading{{Name: "power_w", Value: 4.25, At: clock.Now()}}},
		},
	}); err != nil {
		t.Fatal(err)
	}
}

// TestDurableRecoveryByteIdentical is the subsystem's core contract: a
// reopened durable cloud replays the WAL into a state whose Snapshot
// encoding is byte-for-byte identical to the live cloud's.
func TestDurableRecoveryByteIdentical(t *testing.T) {
	dir := t.TempDir()
	d, clock := newDurable(t, dir, DurableOptions{})
	runLoggedWorkload(t, d, clock)

	want := encodeState(t, d)
	ops := d.AppliedOps()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, _ := newDurable(t, dir, DurableOptions{Clock: clock.Now})
	rec := d2.Recovery()
	if rec.SnapshotLSN != 0 || rec.Replayed != int(ops) {
		t.Fatalf("recovery = %+v, want snapshot 0 and %d replayed", rec, ops)
	}
	got := encodeState(t, d2)
	if !bytes.Equal(want, got) {
		t.Errorf("recovered snapshot differs from live snapshot:\nlive:\n%s\nrecovered:\n%s", want, got)
	}
}

// TestDurableCheckpointAnchorsRecovery proves a checkpoint becomes the
// recovery base: segments behind it are deleted, the snapshot restores,
// and only post-checkpoint records replay.
func TestDurableCheckpointAnchorsRecovery(t *testing.T) {
	dir := t.TempDir()
	d, clock := newDurable(t, dir, DurableOptions{WAL: wal.Options{SegmentSize: 256}})
	runLoggedWorkload(t, d, clock)

	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	checkpointLSN := d.AppliedOps()

	// Two more logged operations after the checkpoint.
	clock.Advance(time.Second)
	if _, err := d.HandleStatus(protocol.StatusRequest{
		Kind: protocol.StatusHeartbeat, DeviceID: testDevice, IdempotencyKey: "hb-post",
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.HandleShare(protocol.ShareRequest{
		DeviceID: testDevice, UserToken: "", Guest: "guest@example.com", Revoke: true,
	}); err == nil {
		// Missing token must fail. Write-ahead means the attempt is
		// logged anyway; replay re-executes it and it fails identically.
		t.Fatal("share without token succeeded")
	}
	want := encodeState(t, d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// The tiny segment size forced rotations; after the checkpoint each
	// shard keeps at most its active segment plus one started since.
	shardDirs, err := filepath.Glob(filepath.Join(dir, "wal", "shard-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(shardDirs) == 0 {
		t.Fatal("no WAL shard directories exist")
	}
	for _, sd := range shardDirs {
		segs, err := filepath.Glob(filepath.Join(sd, "*.wal"))
		if err != nil {
			t.Fatal(err)
		}
		if len(segs) > 2 {
			t.Errorf("%s: %d WAL segments survive the checkpoint, want <= 2", filepath.Base(sd), len(segs))
		}
	}

	d2, _ := newDurable(t, dir, DurableOptions{Clock: clock.Now, WAL: wal.Options{SegmentSize: 256}})
	rec := d2.Recovery()
	if rec.SnapshotLSN != checkpointLSN {
		t.Errorf("recovered from snapshot LSN %d, want %d", rec.SnapshotLSN, checkpointLSN)
	}
	if rec.Replayed != 2 {
		t.Errorf("replayed %d records, want 2 (post-checkpoint heartbeat + failed share)", rec.Replayed)
	}
	if got := encodeState(t, d2); !bytes.Equal(want, got) {
		t.Error("recovered snapshot differs from live snapshot after checkpoint")
	}
	// Exactly one checkpoint file remains.
	snaps, err := listSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 || snaps[0].lsn != checkpointLSN {
		t.Errorf("snapshot files = %+v, want exactly one at LSN %d", snaps, checkpointLSN)
	}
}

// TestDurableCrashLosesNothingApplied injects a crash mid-frame: the
// append fails, the operation is rejected, and reopening recovers every
// operation that was acknowledged — the torn tail truncates silently.
func TestDurableCrashLosesNothingApplied(t *testing.T) {
	dir := t.TempDir()
	appends := 0
	var crashAt int
	fp := func(stage wal.Stage) wal.Crash {
		if stage == wal.StageFramePayload {
			appends++
			if appends == crashAt {
				return wal.CrashKeep
			}
		}
		return wal.CrashNone
	}
	crashAt = 5 // register_user, login, status register, bind, then control tears
	d, clock := newDurable(t, dir, DurableOptions{
		WAL: wal.Options{Policy: wal.SyncEveryRecord, Failpoint: fp},
	})
	victim := durableLogin(t, d, "victim@example.com", "pw-victim")
	if _, err := d.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: victim}); err != nil {
		t.Fatal(err)
	}
	want := encodeState(t, d)

	// The 5th append tears mid-frame: the control op must fail and must
	// not have been applied (write-ahead).
	_, err := d.HandleControl(protocol.ControlRequest{
		DeviceID: testDevice, UserToken: victim, Command: protocol.Command{ID: "c1", Name: "turn_on"},
	})
	if !errors.Is(err, wal.ErrCrashed) {
		t.Fatalf("control during crash = %v, want ErrCrashed", err)
	}
	if got := encodeState(t, d); !bytes.Equal(want, got) {
		t.Error("crashed append mutated state: write-ahead violated")
	}
	d.Close()

	d2, _ := newDurable(t, dir, DurableOptions{Clock: clock.Now})
	rec := d2.Recovery()
	if rec.TornTails() != 1 {
		t.Errorf("recovery reported %d torn shard tails, want 1", rec.TornTails())
	}
	if rec.Replayed != 4 {
		t.Errorf("replayed %d records, want 4", rec.Replayed)
	}
	if got := encodeState(t, d2); !bytes.Equal(want, got) {
		t.Error("recovered state differs from last acknowledged state")
	}
}

// TestDurablePersistentIdempotencyAcrossRestart proves the opt-in log
// keeps keyed mutations at-most-once across both recovery paths: WAL
// replay (which re-records the outcome) and snapshot restore (which
// carries the log itself).
func TestDurablePersistentIdempotencyAcrossRestart(t *testing.T) {
	for _, mode := range []string{"replay", "checkpoint"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			opts := DurableOptions{ServiceOptions: []Option{WithPersistentIdempotency()}}
			d, clock := newDurable(t, dir, opts)
			victim := durableLogin(t, d, "victim@example.com", "pw-victim")
			req := protocol.BindRequest{DeviceID: testDevice, UserToken: victim, IdempotencyKey: "bind-1"}
			first, err := d.HandleBind(req)
			if err != nil {
				t.Fatal(err)
			}
			if mode == "checkpoint" {
				if err := d.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			d.Close()

			d2, _ := newDurable(t, dir, DurableOptions{Clock: clock.Now, ServiceOptions: opts.ServiceOptions})
			replayed, err := d2.HandleBind(req)
			if err != nil {
				t.Fatalf("redelivered bind after restart: %v", err)
			}
			if replayed != first {
				t.Errorf("replayed response %+v differs from original %+v", replayed, first)
			}
			if got := d2.Service().Stats().BindsDeduplicated; got != 1 {
				t.Errorf("BindsDeduplicated = %d, want 1 (redelivery answered from the persisted log)", got)
			}
		})
	}
}

// TestDurableLivenessSkip pins the fast path: a bare heartbeat appends
// no WAL record of its own — its liveness effect rides as a pending
// note flushed ahead of the next logged record — and one that drains
// inbox state logs after the fact so the drain survives a restart.
func TestDurableLivenessSkip(t *testing.T) {
	dir := t.TempDir()
	d, clock := newDurable(t, dir, DurableOptions{})
	victim := durableLogin(t, d, "victim@example.com", "pw-victim")
	if _, err := d.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: victim}); err != nil {
		t.Fatal(err)
	}
	base := d.AppliedOps()

	// Bare heartbeats with nothing queued: pure liveness, no record yet,
	// no matter how many arrive — the pending note coalesces.
	for i := 0; i < 3; i++ {
		clock.Advance(time.Second)
		if _, err := d.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: testDevice}); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.AppliedOps(); got != base {
		t.Errorf("bare heartbeats appended WAL records (LSN %d -> %d)", base, got)
	}

	// Queue a command: the control's outcome depends on the device being
	// online, so the pending liveness note must flush ahead of it — two
	// records, not one.
	if _, err := d.HandleControl(protocol.ControlRequest{
		DeviceID: testDevice, UserToken: victim, Command: protocol.Command{ID: "c1", Name: "turn_on"},
	}); err != nil {
		t.Fatal(err)
	}
	if got := d.AppliedOps(); got != base+2 {
		t.Errorf("AppliedOps = %d, want %d (flushed liveness + control)", got, base+2)
	}

	// Drain it with another bare heartbeat: the drain must be logged.
	resp, err := d.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: testDevice})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Commands) != 1 {
		t.Fatalf("draining heartbeat returned %d commands, want 1", len(resp.Commands))
	}
	if got := d.AppliedOps(); got != base+3 {
		t.Errorf("AppliedOps = %d, want %d (liveness + control + logged drain)", got, base+3)
	}
	d.Close()

	// The drain survives: the recovered inbox is empty.
	d2, _ := newDurable(t, dir, DurableOptions{Clock: clock.Now})
	snap := d2.Snapshot()
	if len(snap.Shadows) != 1 || len(snap.Shadows[0].CommandInbox) != 0 {
		t.Errorf("recovered command inbox = %+v, want empty (drain was logged)", snap.Shadows)
	}
}

// TestDurableUnloggedLivenessReplaysForControl pins the recovery bug
// class the liveness notes exist for: a control acknowledged live only
// because an *unlogged* bare heartbeat had put the device online must
// replay to the same acknowledgement — not be rejected offline with its
// error silently discarded, losing the fsynced command.
func TestDurableUnloggedLivenessReplaysForControl(t *testing.T) {
	dir := t.TempDir()
	d, clock := newDurable(t, dir, DurableOptions{})
	victim := durableLogin(t, d, "victim@example.com", "pw-victim")
	if _, err := d.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: victim}); err != nil {
		t.Fatal(err)
	}

	// 45s after registering, a bare heartbeat refreshes liveness with no
	// WAL record; 45s after that, the register alone would have expired
	// (TTL 60s), so the control below is accepted *only because of the
	// unlogged heartbeat*.
	clock.Advance(45 * time.Second)
	if _, err := d.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: testDevice}); err != nil {
		t.Fatal(err)
	}
	clock.Advance(45 * time.Second)
	resp, err := d.HandleControl(protocol.ControlRequest{
		DeviceID: testDevice, UserToken: victim, Command: protocol.Command{ID: "c1", Name: "turn_on"},
	})
	if err != nil || !resp.Queued {
		t.Fatalf("control = %+v, %v; want Queued (device online via the bare heartbeat)", resp, err)
	}
	want := encodeStateNoStats(t, d)
	d.Close()

	d2, _ := newDurable(t, dir, DurableOptions{Clock: clock.Now})
	snap := d2.Snapshot()
	if len(snap.Shadows) != 1 || len(snap.Shadows[0].CommandInbox) != 1 {
		t.Fatalf("recovered command inbox = %+v, want the acknowledged command", snap.Shadows)
	}
	if got := encodeStateNoStats(t, d2); !bytes.Equal(want, got) {
		t.Errorf("recovered snapshot differs from live snapshot:\nlive:\n%s\nrecovered:\n%s", want, got)
	}
}

// TestDurableUnloggedSessionOwnerReplays pins the dev-token variant of
// the same bug: a bare heartbeat authenticated with another account's
// device token flips the session owner without a WAL record, and a
// control refused live because of it (Section V-E) must be refused on
// replay too — not silently accepted into the recovered inbox.
func TestDurableUnloggedSessionOwnerReplays(t *testing.T) {
	dir := t.TempDir()
	d, clock := newDurableDesign(t, dir, devTokenDesign(), DurableOptions{})
	victim := durableLogin(t, d, "victim@example.com", "pw-victim")
	attacker := durableLogin(t, d, "attacker@example.com", "pw-attacker")

	proof := protocol.PairingProof(testSecret, testDevice)
	vicTok, err := d.RequestDeviceToken(protocol.DeviceTokenRequest{UserToken: victim, DeviceID: testDevice, PairingProof: proof})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice, DevToken: vicTok.DevToken}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: victim, Sender: core.SenderApp}); err != nil {
		t.Fatal(err)
	}
	atkTok, err := d.RequestDeviceToken(protocol.DeviceTokenRequest{UserToken: attacker, DeviceID: testDevice, PairingProof: proof})
	if err != nil {
		t.Fatal(err)
	}

	// The attacker's bare heartbeat flips the session owner with no WAL
	// record of its own.
	clock.Advance(time.Second)
	if _, err := d.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: testDevice, DevToken: atkTok.DevToken}); err != nil {
		t.Fatal(err)
	}

	// Control is refused live: the binding's owner no longer owns the
	// device session. Write-ahead logs the attempt anyway; the flushed
	// liveness record ahead of it carries the owner flip, so replay
	// refuses it identically.
	_, err = d.HandleControl(protocol.ControlRequest{DeviceID: testDevice, UserToken: victim, Command: protocol.Command{ID: "c1", Name: "unlock"}})
	if !errors.Is(err, protocol.ErrNotPermitted) {
		t.Fatalf("control after owner flip = %v, want ErrNotPermitted", err)
	}
	want := encodeStateNoStats(t, d)
	d.Close()

	d2, _ := newDurableDesign(t, dir, devTokenDesign(), DurableOptions{Clock: clock.Now})
	snap := d2.Snapshot()
	if len(snap.Shadows) != 1 {
		t.Fatalf("recovered %d shadows, want 1", len(snap.Shadows))
	}
	if got := snap.Shadows[0].SessionOwner; got != "attacker@example.com" {
		t.Errorf("recovered session owner = %q, want the attacker's account", got)
	}
	if got := len(snap.Shadows[0].CommandInbox); got != 0 {
		t.Errorf("recovered inbox holds %d commands, want 0 (the refused control must not replay as accepted)", got)
	}
	if got := encodeStateNoStats(t, d2); !bytes.Equal(want, got) {
		t.Error("recovered snapshot differs from live snapshot")
	}
}

// TestDurableDrainAppendFailureRequeues pins the fast-path failure
// contract: when a bare heartbeat drains queued deliveries but the
// after-the-fact WAL append fails, the delivery errors AND the drained
// items go back into the inbox — the live process must not limp along
// with deliveries the device never received already removed.
func TestDurableDrainAppendFailureRequeues(t *testing.T) {
	for _, mode := range []string{"single", "batch"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			appends := 0
			fp := func(stage wal.Stage) wal.Crash {
				if stage == wal.StageFramePayload {
					appends++
					// register_user, login, register, bind, control land;
					// the drain's after-the-fact record tears.
					if appends == 6 {
						return wal.CrashKeep
					}
				}
				return wal.CrashNone
			}
			d, clock := newDurable(t, dir, DurableOptions{
				WAL: wal.Options{Policy: wal.SyncEveryRecord, Failpoint: fp},
			})
			victim := durableLogin(t, d, "victim@example.com", "pw-victim")
			if _, err := d.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice}); err != nil {
				t.Fatal(err)
			}
			if _, err := d.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: victim}); err != nil {
				t.Fatal(err)
			}
			if _, err := d.HandleControl(protocol.ControlRequest{
				DeviceID: testDevice, UserToken: victim, Command: protocol.Command{ID: "c1", Name: "turn_on"},
			}); err != nil {
				t.Fatal(err)
			}

			clock.Advance(time.Second)
			var err error
			if mode == "single" {
				_, err = d.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: testDevice})
			} else {
				_, err = d.HandleStatusBatch(protocol.StatusBatchRequest{Items: []protocol.StatusRequest{
					{Kind: protocol.StatusHeartbeat, DeviceID: testDevice},
				}})
			}
			if !errors.Is(err, wal.ErrCrashed) {
				t.Fatalf("draining heartbeat during crash = %v, want ErrCrashed", err)
			}

			// The drained command is back in the live inbox.
			snap := d.Snapshot()
			if len(snap.Shadows) != 1 || len(snap.Shadows[0].CommandInbox) != 1 || snap.Shadows[0].CommandInbox[0].ID != "c1" {
				t.Fatalf("live inbox after failed drain append = %+v, want the requeued command", snap.Shadows)
			}
			d.Close()

			// And in the recovered one: the drain never became durable.
			d2, _ := newDurable(t, dir, DurableOptions{Clock: clock.Now})
			snap = d2.Snapshot()
			if len(snap.Shadows) != 1 || len(snap.Shadows[0].CommandInbox) != 1 {
				t.Errorf("recovered inbox = %+v, want the undrained command", snap.Shadows)
			}
		})
	}
}

// TestDurableMetaPinsDesign proves a directory cannot be reopened under
// a different design.
func TestDurableMetaPinsDesign(t *testing.T) {
	dir := t.TempDir()
	d, _ := newDurable(t, dir, DurableOptions{})
	d.Close()

	reg := NewRegistry()
	if err := reg.Add(DeviceRecord{ID: testDevice, FactorySecret: testSecret}); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable(dir, devTokenDesign(), reg, DurableOptions{}); !errors.Is(err, protocol.ErrBadRequest) {
		t.Errorf("reopen under different design = %v, want ErrBadRequest", err)
	}
}

// TestDurableMetaPinsRecordVocabulary: meta.json's version names the WAL
// record vocabulary. A version-1 directory — whose log holds the cold
// operations as '{'-records no decoder reads any more — is refused by
// version, before anything is replayed or rewritten; and a meta.json
// without a shard count is malformed, not a legacy form to adopt.
func TestDurableMetaPinsRecordVocabulary(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Add(DeviceRecord{ID: testDevice, FactorySecret: testSecret}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, from, to, want string
	}{
		{"version 1", `"version": 2`, `"version": 1`, "meta.json version 1, want 2"},
		{"no shard count", `"wal_shards": 8`, `"wal_shards": 0`, "pins no WAL shard count"},
	} {
		dir := t.TempDir()
		d, clock := newDurable(t, dir, DurableOptions{WALShards: 8})
		runLoggedWorkload(t, d, clock)
		d.Close()
		// A '{'-record in the log: a version-1 open would have replayed it.
		shard, err := wal.Open(filepath.Join(dir, "wal", wal.ShardDirName(0)), wal.Options{SparseLSN: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := shard.AppendLSN(d.AppliedOps()+1, []byte(`{"op":"login","at":1,"login":{"user_id":"u"}}`)); err != nil {
			t.Fatal(err)
		}
		shard.Close()

		path := filepath.Join(dir, "meta.json")
		meta, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		edited := bytes.Replace(meta, []byte(tc.from), []byte(tc.to), 1)
		if bytes.Equal(edited, meta) {
			t.Fatalf("%s: meta.json has no %s to edit:\n%s", tc.name, tc.from, meta)
		}
		if err := os.WriteFile(path, edited, 0o644); err != nil {
			t.Fatal(err)
		}
		d2, err := OpenDurable(dir, devIDDesign(), reg, DurableOptions{})
		if err == nil {
			d2.Close()
			t.Fatalf("%s: OpenDurable accepted the directory", tc.name)
		}
		if !errors.Is(err, protocol.ErrBadRequest) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: refusal = %v, want ErrBadRequest saying %q", tc.name, err, tc.want)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, edited) {
			t.Errorf("%s: the refusal rewrote meta.json:\n%s", tc.name, after)
		}
	}
}

// TestDurableSkipsTornCheckpoint proves a checkpoint file torn by a
// crash mid-write is skipped in favour of the WAL tail behind it.
func TestDurableSkipsTornCheckpoint(t *testing.T) {
	dir := t.TempDir()
	d, clock := newDurable(t, dir, DurableOptions{})
	runLoggedWorkload(t, d, clock)
	want := encodeState(t, d)
	ops := d.AppliedOps()
	d.Close()

	// A torn snapshot claiming to cover everything: recovery must not
	// trust it.
	torn := snapshotPath(dir, ops)
	if err := os.WriteFile(torn, []byte(`{"version":1,"design_name":"devid-acl","acc`), 0o644); err != nil {
		t.Fatal(err)
	}
	d2, _ := newDurable(t, dir, DurableOptions{Clock: clock.Now})
	rec := d2.Recovery()
	if rec.SnapshotsSkipped != 1 || rec.SnapshotLSN != 0 {
		t.Errorf("recovery = %+v, want the torn checkpoint skipped and full replay", rec)
	}
	if got := encodeState(t, d2); !bytes.Equal(want, got) {
		t.Error("recovered state differs after skipping torn checkpoint")
	}
}

// TestDurableClosedRefusesOperations pins the closed-state error.
func TestDurableClosedRefusesOperations(t *testing.T) {
	dir := t.TempDir()
	d, _ := newDurable(t, dir, DurableOptions{})
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Errorf("second close = %v, want nil", err)
	}
	if _, err := d.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice}); !errors.Is(err, ErrDurableClosed) {
		t.Errorf("status after close = %v, want ErrDurableClosed", err)
	}
	if err := d.RegisterUser(protocol.RegisterUserRequest{UserID: "u", Password: "p"}); !errors.Is(err, ErrDurableClosed) {
		t.Errorf("register after close = %v, want ErrDurableClosed", err)
	}
	if err := d.Checkpoint(); !errors.Is(err, ErrDurableClosed) {
		t.Errorf("checkpoint after close = %v, want ErrDurableClosed", err)
	}
}

// TestDurableConcurrentStatusRecovery hammers the sharded hot lane from
// 16 goroutines — keyed heartbeats across 24 devices spread over 8 WAL
// shards — then proves the concurrently-built state replays
// byte-identically from the merged per-shard logs. This is the
// correctness half of the per-shard WAL design: live apply order across
// shards differs from LSN order, and recovery must converge anyway.
func TestDurableConcurrentStatusRecovery(t *testing.T) {
	dir := t.TempDir()
	clock := newTestClock()
	reg := NewRegistry()
	const devs = 24
	ids := make([]string, devs)
	for i := range ids {
		ids[i] = fmt.Sprintf("AA:BB:CC:0D:00:%02X", i)
		if err := reg.Add(DeviceRecord{ID: ids[i], FactorySecret: testSecret, Model: "plug"}); err != nil {
			t.Fatal(err)
		}
	}
	open := func() *Durable {
		d, err := OpenDurable(dir, devIDDesign(), reg, DurableOptions{
			Clock: clock.Now, WALShards: 8,
			WAL: wal.Options{Policy: wal.SyncGrouped, GroupEvery: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d := open()
	for _, id := range ids {
		if _, err := d.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: id}); err != nil {
			t.Fatal(err)
		}
	}

	const workers, perWorker = 16, 30
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < perWorker; k++ {
				id := ids[(w*31+k)%devs]
				if _, err := d.HandleStatus(protocol.StatusRequest{
					Kind: protocol.StatusHeartbeat, DeviceID: id,
					IdempotencyKey: fmt.Sprintf("w%d-k%d", w, k),
					Readings:       []protocol.Reading{{Name: "power_w", Value: float64(w*perWorker + k), At: clock.Now()}},
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if got, want := d.AppliedOps(), uint64(devs+workers*perWorker); got != want {
		t.Errorf("AppliedOps = %d, want %d (every status logged exactly once)", got, want)
	}
	want := encodeState(t, d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := open()
	defer d2.Close()
	if got := encodeState(t, d2); !bytes.Equal(want, got) {
		t.Error("state recovered from merged shard logs differs from the concurrently-built live state")
	}
	marks := d2.ShardWatermarks()
	used := 0
	for _, m := range marks {
		if m > 0 {
			used++
		}
	}
	if used < 2 {
		t.Errorf("records landed on %d WAL shards, want the load spread across several: %v", used, marks)
	}
}

// TestDurableRefusesUnshardedWAL proves a pre-sharding directory — a log
// sitting directly in wal/ — is refused as corrupt, naming the layout,
// rather than opened as an empty store beside its acknowledged records;
// the refusal leaves the directory as it found it.
func TestDurableRefusesUnshardedWAL(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	old, err := wal.Open(walDir, wal.Options{Policy: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	var sb bytes.Buffer
	wirecodec.EncodeStatusRecord(&sb, time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC),
		&protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice})
	if _, err := old.Append(sb.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	before, _ := filepath.Glob(filepath.Join(dir, "*"))
	segments, _ := filepath.Glob(filepath.Join(walDir, "*.wal"))
	if len(segments) == 0 {
		t.Fatal("fixture wrote no segment directly under wal/")
	}

	reg := NewRegistry()
	if err := reg.Add(DeviceRecord{ID: testDevice, FactorySecret: testSecret, Model: "plug"}); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDurable(dir, devIDDesign(), reg, DurableOptions{})
	if err == nil {
		d.Close()
		t.Fatal("OpenDurable accepted a directory with segments directly under wal/")
	}
	if !errors.Is(err, wal.ErrCorrupt) || !strings.Contains(err.Error(), "single-directory layout") ||
		!strings.Contains(err.Error(), filepath.Base(segments[0])) {
		t.Errorf("refusal = %v, want wal.ErrCorrupt naming the layout and the segment", err)
	}
	after, _ := filepath.Glob(filepath.Join(dir, "*"))
	left, _ := filepath.Glob(filepath.Join(walDir, "*.wal"))
	if !reflect.DeepEqual(before, after) || !reflect.DeepEqual(segments, left) {
		t.Errorf("refusal changed the directory: %v -> %v, segments %v -> %v", before, after, segments, left)
	}
}

// TestDescribeWALRecords checks the walinspect rendering over a real
// log: every record is binary and describes without error, one line per
// record type with that type's fields — nothing falls through to an
// envelope.
func TestDescribeWALRecords(t *testing.T) {
	dir := t.TempDir()
	d, clock := newDurable(t, dir, DurableOptions{})
	runLoggedWorkload(t, d, clock)
	d.Close()

	var lines []string
	_, err := wal.MergeShards(filepath.Join(dir, "wal"), 0, 0, func(shard int, lsn uint64, payload []byte) error {
		if payload[0] == '{' {
			t.Errorf("record %d is a JSON envelope: %s", lsn, payload)
		}
		line, err := wirecodec.DescribeRecord(payload)
		if err != nil {
			t.Fatalf("record %d: %v", lsn, err)
		}
		lines = append(lines, line)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(lines, "\n")
	for _, want := range []string{
		"register_user user=victim@example.com",
		"login user=guest@example.com",
		"status register device=" + testDevice + " keyed=false readings=0",
		"bind device=" + testDevice + " sender=0 keyed=true",
		"control device=" + testDevice + " cmd=turn_on",
		"push device=" + testDevice + " kind=schedule",
		"share device=" + testDevice + " guest=guest@example.com revoke=false",
		"status heartbeat device=" + testDevice + " keyed=true readings=1",
		"status_batch items=2",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("no described record reads %q:\n%s", want, joined)
		}
	}
}
