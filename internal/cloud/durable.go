package cloud

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/jsonpool"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/token"
	"github.com/iotbind/iotbind/internal/wal"
	"github.com/iotbind/iotbind/internal/wirecodec"
)

// Durable wraps a Service with write-ahead logging and snapshot-anchored
// recovery: every state mutation is appended to the WAL before it is
// applied, checkpoints write a Snapshot and delete the WAL segments it
// covers, and OpenDurable rebuilds the service by restoring the latest
// valid snapshot and replaying the WAL tail.
//
// The WAL is sharded. The root wal/ directory holds one sparse-LSN
// log per WAL shard (wal/shard-NNN/), devices route to shards by the
// same FNV-1a hash the shadow store uses, and every record carries an
// LSN drawn from one global atomic allocator — so each shard log is a
// strictly increasing subsequence of a single global stream and
// recovery deterministically merges the shard tails back into that
// stream by LSN. Two lanes share the structure:
//
//   - The hot lane (HandleStatus) takes a read lock plus its target
//     shard's mutex: status operations for devices on different WAL
//     shards append and apply fully in parallel. The operations
//     commute — they touch disjoint shadows and only commutative
//     shared state (atomic counters, per-subject token entries) — so
//     replaying in LSN order converges on the live state even when
//     live wall-clock apply order across shards differed.
//   - The cold lane (accounts, tokens, bind/unbind, control, push,
//     share, batches, checkpoint) takes the write lock: it is totally
//     ordered against every hot operation, so its LSN sits exactly
//     where its effects sit.
//
// Same-shard operations serialize on the shard mutex and allocate LSNs
// inside it, so per-device order always equals LSN order. Lock order:
// durable RWMutex -> WAL-shard mutex -> shadow-shard/shadow locks ->
// issuer (the documented store ordering nests inside the WAL layer).
//
// Replay is deterministic by construction. Each record carries the wall
// time its operation executed at, and operation entropy (token values,
// session nonces) is drawn from a DRBG seeded by the directory's master
// seed and the record's LSN — so a replayed operation issues the exact
// credentials the live execution issued, and the recovered Snapshot is
// byte-identical to a snapshot of the logged prefix. Hot-lane
// operations pin their clock and nonce source through an explicit
// per-operation environment (opEnv) rather than the process-wide
// pinned clock, because several of them are in flight at once.
//
// One deliberate exception keeps the durability tax off the liveness
// path: a pure keep-alive heartbeat (unkeyed, no readings, no button,
// not a registration) mutates only lastSeen, the online flip, the
// session owner and the status counters, so it is applied without a
// WAL record. Its durable-relevant effect is remembered as a pending
// per-device liveness note on the device's WAL shard (coalesced,
// last-wins) and flushed as a compact liveness record immediately
// before the next logged record appends to that shard — cold-lane
// operations flush every shard first, since a control's online check
// may depend on any device's liveness. A heartbeat that drains queued
// commands or user data — a durable mutation — is itself appended
// after the fact so the drain survives a restart; if that append
// fails, the drained items are requeued and the delivery fails, so
// nothing acknowledged is lost either way. Pending liveness that never
// gets flushed (no dependent logged operation before a crash) is
// re-established by the next heartbeat, and the skipped status
// counters are durable only as of the last checkpoint.
//
// Durable implements the same handler surface as Service (the
// transport.Cloud contract) and is safe for concurrent use.
type Durable struct {
	dir     string
	walRoot string
	svc     *Service
	wall    func() time.Time
	master  [32]byte
	walOpts wal.Options // per-shard template: sparse, no LSN floor

	// mu is the two-lane lock: RLock for sharded hot-path status
	// operations, Lock for cold operations, checkpoints and close.
	mu       sync.RWMutex
	shards   []*durableShard
	walMask  uint32
	recovery DurableRecovery
	closed   bool
	follower bool // replica mode: mutations rejected, records arrive via ShipRecord
	// observe, when set, is handed every record appendLocked lands (see
	// SetAppendObserver). Written under mu exclusively, read under either
	// side of it.
	observe func(shard int, lsn uint64, payload []byte)

	// nextLSN is the global LSN allocator (last allocated); lastAcked
	// is the highest LSN whose append succeeded — the durable
	// watermark an allocation gap never advances.
	nextLSN   atomic.Uint64
	lastAcked atomic.Uint64

	// opAt, when non-zero, pins the service clock to the executing
	// cold-lane or replayed operation's record time (UnixNano). Hot-lane
	// operations do not use it — they carry their clock in an opEnv —
	// but the issuer clock and pass-through reads (Readings,
	// ShadowState) still sample it, so a read overlapping a cold
	// operation observes the pinned time rather than wall time. That
	// skew is bounded by the operation's duration, and the only
	// clock-derived mutation on a read path — heartbeat expiry — is a
	// pure function of (now, lastSeen), so live and recovered state
	// still converge. No credential verified on the hot path carries an
	// expiry (device and session tokens are issued with TTL 0), so the
	// issuer reading wall time there cannot diverge from replay.
	opAt atomic.Int64

	// opG is the executing cold-lane or replayed operation's entropy
	// stream (unseeded outside one), guarded by mu (write lock) exactly
	// as before the WAL was sharded: every entropy consumer outside the
	// hot path sits inside a cold handler or single-goroutine replay.
	// The hot path's only entropy draw — the register session nonce —
	// comes from the stream in its opEnv instead and never touches this
	// field.
	opG drbg

	// cur is the cursor record applies decode with: they run one at a
	// time (recovery, or ShipRecord under mu), and a fresh *Cursor handed
	// to a row's func values would escape. It reads device IDs through
	// the registry (set once at open), so a known device costs no ID.
	cur wirecodec.Cursor
}

// durableShard is one WAL shard: a lazily opened sparse log plus the
// pending liveness notes of the devices that route to it, both guarded
// by the shard mutex.
type durableShard struct {
	index int

	mu      sync.Mutex
	log     *wal.Log // nil until the shard's first append
	pending map[string]struct{}
}

// DurableOptions configures OpenDurable.
type DurableOptions struct {
	// WAL configures each shard log (fsync policy, segment size,
	// failpoint — a failpoint is shared by every shard, so a kill
	// schedule can crash individual shard logs independently).
	// InitialLSN and SparseLSN are overwritten by the sharded layout.
	WAL wal.Options
	// WALShards is the number of WAL shards for a fresh directory
	// (rounded up to a power of two; 0 selects a GOMAXPROCS-scaled
	// default). An existing directory keeps the count pinned in its
	// meta.json — routing must stay stable across restarts for
	// watermark-based resume oracles.
	WALShards int
	// Clock overrides the wall clock (tests, testbeds).
	Clock func() time.Time
	// Follower opens the directory as a replica: every mutating handler
	// returns ErrNotPrimary and state arrives solely through ShipRecord
	// until Promote. The directory must carry the primary's meta.json
	// (same master seed, design and shard count) for shipped records to
	// replay byte-identically.
	Follower bool
	// ServiceOptions are forwarded to the underlying Service —
	// WithPersistentIdempotency, TTL overrides, and the like. Clock,
	// nonce-source and token-issuer options are installed by Durable
	// itself and must not be passed here.
	ServiceOptions []Option
}

// DurableShardRecovery is one WAL shard's recovery report.
type DurableShardRecovery struct {
	// Shard is the WAL shard index.
	Shard int
	// Info is that log's scan/truncation report.
	Info wal.RecoveryInfo
}

// DurableRecovery describes what OpenDurable rebuilt.
type DurableRecovery struct {
	// SnapshotLSN is the LSN the restored snapshot covered (0 when the
	// directory had no usable snapshot).
	SnapshotLSN uint64
	// SnapshotsSkipped counts snapshot files that failed to parse or
	// restore — torn checkpoints left behind by a crash, skipped in
	// favour of an older valid one.
	SnapshotsSkipped int
	// Replayed is how many WAL records were re-executed on top of the
	// snapshot (merged across shards).
	Replayed int
	// WALShards are the per-shard scan/truncation reports, in shard
	// order.
	WALShards []DurableShardRecovery
}

// TornTails counts shard logs that ended in a torn tail Open truncated.
func (r DurableRecovery) TornTails() int {
	n := 0
	for _, s := range r.WALShards {
		if s.Info.Report.Torn {
			n++
		}
	}
	return n
}

// TruncatedBytes sums the torn bytes cut across all shard logs.
func (r DurableRecovery) TruncatedBytes() int64 {
	var n int64
	for _, s := range r.WALShards {
		n += s.Info.TruncatedBytes
	}
	return n
}

// durableMeta is the dir/meta.json sidecar: the design the directory
// belongs to, the master entropy seed replay determinism hangs off,
// and the WAL shard count routing stability hangs off.
type durableMeta struct {
	Version    int    `json:"version"`
	Design     string `json:"design"`
	MasterSeed string `json:"master_seed"`
	WALShards  int    `json:"wal_shards"`
}

// durableMetaVersion names the WAL record vocabulary the directory's log
// is written in. Version 1 logged the cold operations as JSON envelopes
// ('{'-records), which nothing decodes any more.
const durableMetaVersion = 2

// defaultWALShards scales the shard count with available parallelism:
// the smallest power of two covering GOMAXPROCS, clamped to [8, 64] —
// beyond the disk's useful fsync concurrency more logs only cost
// directory entries.
func defaultWALShards() int {
	n := 8
	for n < runtime.GOMAXPROCS(0) && n < 64 {
		n <<= 1
	}
	return n
}

// ceilPow2 rounds n up to a power of two (minimum 1).
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// ErrDurableClosed is returned by operations on a closed Durable.
var ErrDurableClosed = errors.New("cloud: durable cloud closed")

// OpenDurable opens (creating if necessary) a durable cloud rooted at
// dir: meta.json, snap-*.json checkpoints, and a wal/ directory of
// per-shard logs. A directory whose wal/ holds segment files directly —
// the single-directory layout that predates sharding — is refused:
// opening it would serve an empty store beside acknowledged records.
func OpenDurable(dir string, design core.DesignSpec, registry *Registry, opts DurableOptions) (*Durable, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cloud: open durable: %w", err)
	}
	d := &Durable{dir: dir, walRoot: filepath.Join(dir, "wal"), wall: opts.Clock, follower: opts.Follower}
	if d.wall == nil {
		d.wall = time.Now
	}
	if err := d.refuseUnshardedWAL(); err != nil {
		return nil, err
	}
	shardCount := opts.WALShards
	if shardCount <= 0 {
		shardCount = defaultWALShards()
	}
	shardCount = ceilPow2(shardCount)
	if err := d.loadOrCreateMeta(design.Name, &shardCount); err != nil {
		return nil, err
	}
	d.walMask = uint32(shardCount - 1)
	d.shards = make([]*durableShard, shardCount)
	for i := range d.shards {
		d.shards[i] = &durableShard{index: i, pending: make(map[string]struct{})}
	}
	d.walOpts = opts.WAL
	d.walOpts.SparseLSN = true
	d.walOpts.InitialLSN = 0 // shard logs carry no dense floor; the global allocator does

	// Latest valid snapshot first: a checkpoint torn by a crash is
	// skipped in favour of its predecessor (the WAL behind it was only
	// truncated after the snapshot fully landed, so the predecessor's
	// tail is still complete).
	snapLSN, snap, skipped, err := loadLatestSnapshot(dir)
	if err != nil {
		return nil, err
	}
	d.recovery.SnapshotLSN = snapLSN
	d.recovery.SnapshotsSkipped = skipped

	issuer := token.NewIssuer(token.WithClock(d.now), token.WithRandom(d.readEntropy))
	svcOpts := append(append([]Option(nil), opts.ServiceOptions...),
		WithClock(d.now), WithRandomHex(d.randomHex), WithTokenIssuer(issuer))
	svc, err := NewService(design, registry, svcOpts...)
	if err != nil {
		return nil, err
	}
	d.svc = svc
	d.cur.SetIDs(registry.canonicalID)

	if snapLSN > 0 {
		if err := svc.Restore(snap); err != nil {
			return nil, fmt.Errorf("cloud: restore checkpoint at LSN %d: %w", snapLSN, err)
		}
	}

	floor := snapLSN

	// Open every existing shard log (repairing torn tails), then merge
	// their tails into the global stream by LSN and replay.
	dirs, err := wal.ListShardDirs(d.walRoot)
	if err != nil {
		return nil, err
	}
	for _, sd := range dirs {
		if sd.Index >= shardCount {
			return nil, fmt.Errorf("cloud: %w: WAL shard %d outside the directory's %d-shard layout",
				wal.ErrCorrupt, sd.Index, shardCount)
		}
		log, err := wal.Open(sd.Path, d.walOpts)
		if err != nil {
			return nil, fmt.Errorf("cloud: WAL shard %d: %w", sd.Index, err)
		}
		ws := d.shards[sd.Index]
		ws.log = log
		d.recovery.WALShards = append(d.recovery.WALShards,
			DurableShardRecovery{Shard: sd.Index, Info: log.Recovery()})
		if mark := log.LastLSN(); mark > floor {
			floor = mark
		}
	}
	if _, err := wal.MergeShards(d.walRoot, d.walOpts.MaxRecord, snapLSN+1, func(shard int, lsn uint64, payload []byte) error {
		return d.replayRecord(lsn, payload)
	}); err != nil {
		d.closeShardLogs()
		return nil, err
	}
	d.nextLSN.Store(floor)
	d.lastAcked.Store(floor)
	return d, nil
}

// refuseUnshardedWAL fails the open when segment files sit directly in
// wal/ instead of in its per-shard subdirectories. Nothing reads that
// layout any more, so continuing would ignore whatever those segments
// acknowledged.
func (d *Durable) refuseUnshardedWAL() error {
	entries, err := os.ReadDir(d.walRoot)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("cloud: open durable: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".wal") {
			return fmt.Errorf("cloud: open durable: %w: segment %s lies directly under %s (the unsharded single-directory layout); this store reads only %s subdirectories",
				wal.ErrCorrupt, e.Name(), d.walRoot, wal.ShardDirName(0))
		}
	}
	return nil
}

// replayRecord is applyRecord for OpenDurable's recovery loops, which
// alone count into the recovery report: the report says what open
// rebuilt, is final once OpenDurable returns, and is therefore readable
// without a lock while ShipRecord applies live records.
func (d *Durable) replayRecord(lsn uint64, payload []byte) error {
	if err := d.applyRecord(lsn, payload); err != nil {
		return err
	}
	d.recovery.Replayed++
	return nil
}

// closeShardLogs closes whatever shard logs are open (open-failure path).
func (d *Durable) closeShardLogs() {
	for _, ws := range d.shards {
		if ws.log != nil {
			ws.log.Close()
		}
	}
}

// loadOrCreateMeta reads dir/meta.json or writes a fresh one with a
// random master seed, pinning the directory to the design and the WAL
// shard count; for an existing directory *shardCount is overwritten by
// the pinned value. It runs before any record is replayed, so a
// directory written in another record vocabulary is refused whole.
func (d *Durable) loadOrCreateMeta(designName string, shardCount *int) error {
	path := filepath.Join(d.dir, "meta.json")
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		var meta durableMeta
		if err := json.Unmarshal(data, &meta); err != nil {
			return fmt.Errorf("cloud: meta.json: %w", err)
		}
		if meta.Version != durableMetaVersion {
			return fmt.Errorf("cloud: %w: meta.json version %d, want %d (the WAL record vocabulary changed between them)",
				protocol.ErrBadRequest, meta.Version, durableMetaVersion)
		}
		if meta.Design != designName {
			return fmt.Errorf("cloud: %w: directory belongs to design %q, not %q", protocol.ErrBadRequest, meta.Design, designName)
		}
		seed, err := hex.DecodeString(meta.MasterSeed)
		if err != nil || len(seed) != len(d.master) {
			return fmt.Errorf("cloud: %w: meta.json master seed malformed", protocol.ErrBadRequest)
		}
		copy(d.master[:], seed)
		if meta.WALShards <= 0 {
			return fmt.Errorf("cloud: %w: meta.json pins no WAL shard count", protocol.ErrBadRequest)
		}
		*shardCount = ceilPow2(meta.WALShards)
		return nil
	case os.IsNotExist(err):
		if _, err := rand.Read(d.master[:]); err != nil {
			return fmt.Errorf("cloud: master seed: %w", err)
		}
		meta := durableMeta{
			Version:    durableMetaVersion,
			Design:     designName,
			MasterSeed: hex.EncodeToString(d.master[:]),
			WALShards:  *shardCount,
		}
		return d.writeMeta(path, meta)
	default:
		return fmt.Errorf("cloud: meta.json: %w", err)
	}
}

func (d *Durable) writeMeta(path string, meta durableMeta) error {
	data, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return fmt.Errorf("cloud: meta.json: %w", err)
	}
	return atomicWriteFile(path, append(data, '\n'))
}

// ---- deterministic replay plumbing -----------------------------------------

// drbg is a deterministic SHA-256 counter generator: block n of a
// stream is SHA-256(master seed || LSN || n). Each logged operation gets
// its own stream, so live execution and replay of the same record draw
// identical bytes and no two records ever share one. It is a value, made
// by Durable.stream and copied into whatever owns the operation — an
// opEnv on the hot lane, Durable.opG on the cold lane and in replay —
// which must hold it for the whole operation: every draw continues where
// the previous one stopped. Nothing is hashed until the first draw, so an
// operation that draws nothing pays for two words. The zero drbg is
// unseeded: it stands for "no pinned stream".
type drbg struct {
	master *[32]byte
	lsn    uint64
	ctr    uint64   // next block
	blk    [32]byte // current block
	rem    int      // unread bytes of blk
}

// stream returns the entropy stream of the record at lsn, positioned at
// its start.
func (d *Durable) stream(lsn uint64) drbg {
	return drbg{master: &d.master, lsn: lsn}
}

func (g *drbg) seeded() bool { return g.master != nil }

func (g *drbg) read(p []byte) {
	for len(p) > 0 {
		if g.rem == 0 {
			var in [48]byte
			copy(in[:32], g.master[:])
			binary.LittleEndian.PutUint64(in[32:], g.lsn)
			binary.LittleEndian.PutUint64(in[40:], g.ctr)
			g.blk = sha256.Sum256(in[:])
			g.ctr++
			g.rem = len(g.blk)
		}
		n := copy(p, g.blk[len(g.blk)-g.rem:])
		g.rem -= n
		p = p[n:]
	}
}

// hexNonce draws the 16-byte session nonce a register status mints,
// encoded exactly as Service.randomHex encodes it — live hot-lane
// execution (through an opEnv) and replay of a batch's register (through
// d.randomHex) must produce the same string from the same stream.
func (g *drbg) hexNonce() (string, error) {
	var b [16]byte
	g.read(b[:])
	return hex16(&b), nil
}

// beginOp pins the clock and the entropy stream (unseeded for an
// operation that is not logged ahead of its apply) of the cold-lane or
// replayed operation about to execute. The caller holds d.mu
// exclusively; the clock travels through an atomic only because
// pass-through reads sample it without the mutex (see the opAt field
// comment).
func (d *Durable) beginOp(at time.Time, g drbg) {
	d.opG = g
	d.opAt.Store(at.UnixNano())
}

// endOp clears the operation context set by beginOp.
func (d *Durable) endOp() {
	d.opAt.Store(0)
	d.opG = drbg{}
}

// now is the service clock: inside a cold-lane or replayed operation it
// is the record's time at the WAL's nanosecond precision — so a
// replayed operation reads the identical clock — outside (read paths,
// snapshot timestamps, hot-lane issuer samples) it is wall time.
func (d *Durable) now() time.Time {
	if v := d.opAt.Load(); v != 0 {
		return time.Unix(0, v).UTC()
	}
	return d.wall()
}

// readEntropy feeds the token issuer: operations with a pinned DRBG
// draw from it, anything else (never on the logged path) falls back to
// the system source. Every caller executes under d.mu's write lock or
// during single-goroutine replay, so reading opG without the atomic is
// safe.
func (d *Durable) readEntropy(p []byte) error {
	if d.opG.seeded() {
		d.opG.read(p)
		return nil
	}
	_, err := rand.Read(p)
	return err
}

// randomHex feeds the service's nonce source from the same stream.
func (d *Durable) randomHex() (string, error) {
	if d.opG.seeded() {
		return d.opG.hexNonce()
	}
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return hex16(&b), nil
}

// ---- sharded append plumbing -----------------------------------------------

// walShardOf routes a key (device ID for device-addressed operations,
// user ID for account operations) to its WAL shard.
func (d *Durable) walShardOf(key string) *durableShard {
	return d.shards[fnv1a(key)&d.walMask]
}

// appendLocked allocates the next global LSN and appends the record to
// the shard. The caller holds ws.mu, which makes allocation and append
// atomic per shard: shard logs always receive their slice of the
// global stream in increasing order. lastAcked advances only on a
// successful append — an allocation whose append failed is a permanent
// gap in the stream, which recovery tolerates because the operation
// was never acknowledged or applied.
func (d *Durable) appendLocked(ws *durableShard, payload []byte) (uint64, error) {
	if ws.log == nil {
		log, err := wal.Open(filepath.Join(d.walRoot, wal.ShardDirName(ws.index)), d.walOpts)
		if err != nil {
			return 0, err
		}
		ws.log = log
	}
	lsn := d.nextLSN.Add(1)
	if err := ws.log.AppendLSN(lsn, payload); err != nil {
		return 0, err
	}
	if d.observe != nil {
		d.observe(ws.index, lsn, payload)
	}
	for {
		cur := d.lastAcked.Load()
		if lsn <= cur || d.lastAcked.CompareAndSwap(cur, lsn) {
			return lsn, nil
		}
	}
}

// notePendingLocked records that an accepted-but-unlogged heartbeat
// moved the device's liveness state. The note is pure membership: the
// lastSeen and session owner it stands for are read back from the
// service when the note is flushed, which is legal because everything
// that could move them in between — another status on this device, a
// cold-lane operation — flushes this shard's notes first (or, for the
// drain path, supersedes the note with a full record). Keeping the
// note value-free keeps the bare-heartbeat hot path to one map probe
// instead of a second shadow lookup per heartbeat.
func (d *Durable) notePendingLocked(ws *durableShard, deviceID string) {
	if _, ok := ws.pending[deviceID]; !ok {
		ws.pending[deviceID] = struct{}{}
	}
}

// flushShardLocked appends one liveness record per device with an
// unlogged heartbeat on this shard, in device order, clearing each
// note as it lands. It runs before any logged record appends to the
// shard: a logged operation's outcome may depend on lastSeen (the
// control online check) or the session owner (dev-token designs), so
// that state must precede the operation in LSN order for replay to
// reproduce the live outcome. The record's lastSeen and owner are read
// from the service here — flush time — which by the notePendingLocked
// invariant is exactly the state the last unlogged heartbeat left. On
// append failure the unflushed notes are kept for the next attempt and
// the caller's operation fails. The caller holds ws.mu.
func (d *Durable) flushShardLocked(ws *durableShard) error {
	if len(ws.pending) == 0 {
		return nil
	}
	ids := make([]string, 0, len(ws.pending))
	for id := range ws.pending {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	buf := jsonpool.Get()
	defer buf.Put()
	for _, id := range ids {
		at, owner := d.svc.livenessOf(id)
		buf.Writer().Reset()
		wirecodec.EncodeLivenessRecord(buf.Writer(), at, id, owner)
		if _, err := d.appendLocked(ws, buf.Bytes()); err != nil {
			return err
		}
		delete(ws.pending, id)
	}
	return nil
}

// flushAllLocked flushes every shard's pending liveness notes. The
// caller holds d.mu exclusively, so no hot-lane operation can slip a
// new note in between shards.
func (d *Durable) flushAllLocked() error {
	for _, ws := range d.shards {
		ws.mu.Lock()
		err := d.flushShardLocked(ws)
		ws.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// ---- logged execution ------------------------------------------------------

// logThenApply appends the encoded record to routeKey's shard and, only
// if the append succeeded, executes apply under the record's clock and
// entropy. The caller holds d.mu exclusively (the cold lane). A failed
// append (including a simulated crash) leaves the service untouched:
// write-ahead means nothing unlogged is ever applied. Every shard's
// pending liveness notes flush first, so the record replays against
// the same liveness state the live execution observed — a cold
// operation may depend on any device's liveness.
func logThenApply[T any](d *Durable, routeKey string, encode func(*bytes.Buffer, time.Time), apply func() (T, error)) (T, error) {
	var zero T
	if err := d.flushAllLocked(); err != nil {
		return zero, fmt.Errorf("cloud: durable log: %w", err)
	}
	at := d.wall().UTC()
	buf := jsonpool.Get()
	defer buf.Put()
	encode(buf.Writer(), at)
	ws := d.walShardOf(routeKey)
	ws.mu.Lock()
	lsn, err := d.appendLocked(ws, buf.Bytes())
	ws.mu.Unlock()
	if err != nil {
		return zero, fmt.Errorf("cloud: durable log: %w", err)
	}
	d.beginOp(at, d.stream(lsn))
	resp, aerr := apply()
	d.endOp()
	return resp, aerr
}

// logged runs one single-device cold operation: under the write lock,
// req is logged on routeKey's shard as its record — tag, time, the wire
// body put writes — and then applied.
func logged[Req, Resp any](d *Durable, routeKey string, tag uint8, put func(*bytes.Buffer, Req), req Req, apply func(Req) (Resp, error)) (Resp, error) {
	var zero Resp
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return zero, ErrDurableClosed
	}
	if d.follower {
		return zero, ErrNotPrimary
	}
	return logThenApply(d, routeKey, func(b *bytes.Buffer, at time.Time) {
		wirecodec.EncodeRecord(b, tag, at, put, req)
	}, func() (Resp, error) { return apply(req) })
}

// loggedErr is logged for an operation that returns only an error.
func loggedErr[Req any](d *Durable, routeKey string, tag uint8, put func(*bytes.Buffer, Req), req Req, apply func(Req) error) error {
	_, err := logged(d, routeKey, tag, put, req, func(req Req) (struct{}, error) { return struct{}{}, apply(req) })
	return err
}

// statusNeedsWAL decides whether a status message is a durable mutation
// (log-before) or pure liveness (apply, log only on drain). Registers
// always log: they set the device address, may open button windows,
// mint session nonces and revoke session-tied bindings.
func statusNeedsWAL(req *protocol.StatusRequest) bool {
	return req.Kind != protocol.StatusHeartbeat ||
		req.IdempotencyKey != "" ||
		len(req.Readings) > 0 ||
		req.ButtonPressed
}

// ---- the handler surface ---------------------------------------------------

// RegisterUser creates a user account, durably.
func (d *Durable) RegisterUser(req protocol.RegisterUserRequest) error {
	return loggedErr(d, req.UserID, wirecodec.TagRegisterUser, wirecodec.PutRegisterUserBody, req, d.svc.RegisterUser)
}

// Login authenticates a user and durably issues a UserToken.
func (d *Durable) Login(req protocol.LoginRequest) (protocol.LoginResponse, error) {
	return logged(d, req.UserID, wirecodec.TagLogin, wirecodec.PutLoginBody, req, d.svc.Login)
}

// RequestDeviceToken durably issues a dynamic device token.
func (d *Durable) RequestDeviceToken(req protocol.DeviceTokenRequest) (protocol.DeviceTokenResponse, error) {
	return logged(d, req.DeviceID, wirecodec.TagDeviceToken, wirecodec.PutDeviceTokenBody, req, d.svc.RequestDeviceToken)
}

// RequestBindToken durably issues a capability binding token.
func (d *Durable) RequestBindToken(req protocol.BindTokenRequest) (protocol.BindTokenResponse, error) {
	return logged(d, req.DeviceID, wirecodec.TagBindToken, wirecodec.PutBindTokenBody, req, d.svc.RequestBindToken)
}

// HandleBind processes a binding-creation message, durably. The record
// keeps the source address the transport stamped, as every record whose
// request carries one does.
func (d *Durable) HandleBind(req protocol.BindRequest) (protocol.BindResponse, error) {
	return logged(d, req.DeviceID, wirecodec.TagBind, wirecodec.PutBindBody, req, d.svc.HandleBind)
}

// HandleUnbind processes a binding-revocation message, durably.
func (d *Durable) HandleUnbind(req protocol.UnbindRequest) error {
	return loggedErr(d, req.DeviceID, wirecodec.TagUnbind, wirecodec.PutUnbindBody, req, d.svc.HandleUnbind)
}

// HandleControl relays a command, durably (the queued command is inbox
// state a crash must not lose).
func (d *Durable) HandleControl(req protocol.ControlRequest) (protocol.ControlResponse, error) {
	return logged(d, req.DeviceID, wirecodec.TagControl, wirecodec.PutControlBody, req, d.svc.HandleControl)
}

// PushUserData stores user state for the device, durably.
func (d *Durable) PushUserData(req protocol.PushUserDataRequest) error {
	return loggedErr(d, req.DeviceID, wirecodec.TagUserData, wirecodec.PutUserDataBody, req, d.svc.PushUserData)
}

// HandleShare grants or revokes guest access, durably.
func (d *Durable) HandleShare(req protocol.ShareRequest) error {
	return loggedErr(d, req.DeviceID, wirecodec.TagShare, wirecodec.PutShareBody, req, d.svc.HandleShare)
}

// HandleDelegate records a delegation grant, durably. The grant's expiry
// is derived from the record's pinned clock, so replay mints a
// byte-identical token with a byte-identical expiry.
func (d *Durable) HandleDelegate(req protocol.DelegateRequest) (protocol.DelegateResponse, error) {
	return logged(d, req.DeviceID, wirecodec.TagDelegate, wirecodec.PutDelegateBody, req, d.svc.HandleDelegate)
}

// HandleRevokeDelegation withdraws a grant, durably.
func (d *Durable) HandleRevokeDelegation(req protocol.RevokeDelegationRequest) error {
	return loggedErr(d, req.DeviceID, wirecodec.TagRevokeDelegation, wirecodec.PutRevokeDelegationBody, req, d.svc.HandleRevokeDelegation)
}

// HandleStatus processes a device status message on the hot lane: a
// read lock plus the device's WAL-shard mutex, so statuses for devices
// on different shards append and apply in parallel. Durable mutations
// (registers, keyed or data-bearing heartbeats) are logged before they
// apply; pure keep-alives take the liveness path documented on Durable.
func (d *Durable) HandleStatus(req protocol.StatusRequest) (protocol.StatusResponse, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return protocol.StatusResponse{}, ErrDurableClosed
	}
	if d.follower {
		return protocol.StatusResponse{}, ErrNotPrimary
	}
	ws := d.walShardOf(req.DeviceID)
	ws.mu.Lock()
	defer ws.mu.Unlock()

	if statusNeedsWAL(&req) {
		if err := d.flushShardLocked(ws); err != nil {
			return protocol.StatusResponse{}, fmt.Errorf("cloud: durable log: %w", err)
		}
		at := d.wall().UTC()
		buf := jsonpool.Get()
		defer buf.Put()
		wirecodec.EncodeStatusRecord(buf.Writer(), at, &req)
		lsn, err := d.appendLocked(ws, buf.Bytes())
		if err != nil {
			return protocol.StatusResponse{}, fmt.Errorf("cloud: durable log: %w", err)
		}
		// The operation environment pins the record's clock and the
		// LSN-seeded nonce stream without touching the process-wide
		// pinned clock — other shards are mid-operation on their own
		// environments. Replay pins the same clock and stream from the
		// record (applyRows).
		env := opEnv{now: at, g: d.stream(lsn)}
		return d.svc.handleStatusCounted(req, &env)
	}

	// Liveness fast path: apply first, under a clock pinned to the time
	// any after-the-fact record will carry, so the lastSeen the service
	// stores and the time replay restores are the same instant. A drain
	// makes the heartbeat durable after the fact; anything else leaves a
	// pending liveness note for the next logged record on this shard to
	// flush. The shard mutex covers the apply so a record's log position
	// matches its apply order relative to logged operations on the same
	// shard — replay must not drain items queued after it.
	at := d.wall().UTC()
	resp, err := d.svc.handleStatusCounted(req, &opEnv{now: at})
	if err != nil {
		return resp, err
	}
	if len(resp.Commands) > 0 || len(resp.UserData) > 0 {
		buf := jsonpool.Get()
		wirecodec.EncodeStatusRecord(buf.Writer(), at, &req)
		_, lerr := d.appendLocked(ws, buf.Bytes())
		buf.Put()
		if lerr != nil {
			// The WAL refused the record, so the drain never became
			// durable. Requeue the drained items — the live process must
			// not lose deliveries the device never received just because
			// the log is sick — note the liveness effect, and fail the
			// delivery; a recovered cloud redelivers from the same inbox.
			d.svc.requeueDeliveries(req.DeviceID, resp.Commands, resp.UserData)
			d.notePendingLocked(ws, req.DeviceID)
			return protocol.StatusResponse{}, fmt.Errorf("cloud: durable log: %w", lerr)
		}
		// The record replays the full heartbeat, superseding any pending
		// note for this device.
		delete(ws.pending, req.DeviceID)
	} else {
		d.notePendingLocked(ws, req.DeviceID)
	}
	return resp, nil
}

// HandleStatusBatch processes a status batch on the cold lane: a batch
// is one WAL record with one LSN, but its items may span many store
// shards, so it serializes against the hot lane rather than racing it.
// A batch containing any durable item is logged whole before applying;
// an all-liveness batch applies first and is logged only if some item
// drained inbox state.
func (d *Durable) HandleStatusBatch(req protocol.StatusBatchRequest) (protocol.StatusBatchResponse, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return protocol.StatusBatchResponse{}, ErrDurableClosed
	}
	if d.follower {
		return protocol.StatusBatchResponse{}, ErrNotPrimary
	}
	routeKey := "batch"
	if len(req.Items) > 0 {
		routeKey = req.Items[0].DeviceID
	}
	needsWAL := false
	for i := range req.Items {
		if statusNeedsWAL(&req.Items[i]) {
			needsWAL = true
			break
		}
	}
	if needsWAL {
		return logThenApply(d, routeKey, func(b *bytes.Buffer, at time.Time) {
			wirecodec.EncodeBatchRecord(b, at, &req)
		}, func() (protocol.StatusBatchResponse, error) { return d.svc.HandleStatusBatch(req) })
	}

	at := d.wall().UTC()
	d.beginOp(at, drbg{})
	resp, err := d.svc.HandleStatusBatch(req)
	d.endOp()
	if err != nil {
		return resp, err
	}
	drained := false
	for i := range resp.Results {
		r := &resp.Results[i]
		if len(r.Response.Commands) > 0 || len(r.Response.UserData) > 0 {
			drained = true
			break
		}
	}
	if !drained {
		for i := range resp.Results {
			if resp.Results[i].Code == "" {
				id := req.Items[i].DeviceID
				ws := d.walShardOf(id)
				ws.mu.Lock()
				d.notePendingLocked(ws, id)
				ws.mu.Unlock()
			}
		}
		return resp, nil
	}
	buf := jsonpool.Get()
	defer buf.Put()
	wirecodec.EncodeBatchRecord(buf.Writer(), at, &req)
	ws := d.walShardOf(routeKey)
	ws.mu.Lock()
	_, lerr := d.appendLocked(ws, buf.Bytes())
	ws.mu.Unlock()
	if lerr != nil {
		// Same contract as the single-status path: the drains never
		// became durable, so requeue every accepted item's deliveries,
		// note the liveness effects, and fail the batch.
		for i := range resp.Results {
			r := &resp.Results[i]
			if r.Code != "" {
				continue
			}
			id := req.Items[i].DeviceID
			d.svc.requeueDeliveries(id, r.Response.Commands, r.Response.UserData)
			iws := d.walShardOf(id)
			iws.mu.Lock()
			d.notePendingLocked(iws, id)
			iws.mu.Unlock()
		}
		return protocol.StatusBatchResponse{}, fmt.Errorf("cloud: durable log: %w", lerr)
	}
	// The record replays every accepted item, superseding those
	// devices' pending notes; a rejected item replays to the same
	// rejection and re-establishes nothing, so its device's note stays.
	for i := range resp.Results {
		if resp.Results[i].Code == "" {
			id := req.Items[i].DeviceID
			iws := d.walShardOf(id)
			iws.mu.Lock()
			delete(iws.pending, id)
			iws.mu.Unlock()
		}
	}
	return resp, nil
}

// Readings passes through: a pure read.
func (d *Durable) Readings(req protocol.ReadingsRequest) (protocol.ReadingsResponse, error) {
	return d.svc.Readings(req)
}

// Shares passes through: a pure read.
func (d *Durable) Shares(req protocol.SharesRequest) (protocol.SharesResponse, error) {
	return d.svc.Shares(req)
}

// ListDelegations passes through: a pure read.
func (d *Durable) ListDelegations(req protocol.ListDelegationsRequest) (protocol.ListDelegationsResponse, error) {
	return d.svc.ListDelegations(req)
}

// ShadowState passes through. It may apply heartbeat expiry under wall
// time; expiry is a pure function of (now, lastSeen), so live and
// recovered clouds converge on the same answer without a record.
func (d *Durable) ShadowState(req protocol.ShadowStateRequest) (protocol.ShadowStateResponse, error) {
	return d.svc.ShadowState(req)
}

// ---- checkpointing and lifecycle -------------------------------------------

// snapSuffix and snapPrefix name checkpoint files snap-<lsn>.json.
const (
	snapPrefix = "snap-"
	snapSuffix = ".json"
)

func snapshotPath(dir string, lsn uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%020d%s", snapPrefix, lsn, snapSuffix))
}

// Checkpoint syncs every shard log, writes a snapshot anchored at the
// durable watermark, then deletes WAL segments and older snapshots
// wholly covered by it. Crash-safe in every window: the snapshot lands
// atomically (tmp+rename, both fsynced) before any truncation, so
// recovery always finds either the new checkpoint or the old one with
// its full WAL tail.
func (d *Durable) Checkpoint() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrDurableClosed
	}
	for _, ws := range d.shards {
		ws.mu.Lock()
		log := ws.log
		ws.mu.Unlock()
		if log == nil {
			continue
		}
		if err := log.Sync(); err != nil {
			return fmt.Errorf("cloud: checkpoint: %w", err)
		}
	}
	lsn := d.lastAcked.Load()
	if err := d.checkpointAt(lsn); err != nil {
		return err
	}
	// The snapshot captured live lastSeen/sessionOwner, so recovery no
	// longer needs the pending liveness notes behind it.
	for _, ws := range d.shards {
		ws.mu.Lock()
		clear(ws.pending)
		if ws.log != nil {
			if _, err := ws.log.TruncateBefore(lsn + 1); err != nil {
				ws.mu.Unlock()
				return fmt.Errorf("cloud: checkpoint: %w", err)
			}
		}
		ws.mu.Unlock()
	}
	// Older checkpoints are now redundant; losing this cleanup to a
	// crash costs disk, not correctness.
	if snaps, err := listSnapshots(d.dir); err == nil {
		for _, s := range snaps {
			if s.lsn < lsn {
				_ = os.Remove(s.path)
			}
		}
	}
	return nil
}

// checkpointAt writes the current service state as the snapshot
// anchored at lsn.
func (d *Durable) checkpointAt(lsn uint64) error {
	buf := jsonpool.Get()
	defer buf.Put()
	if err := buf.EncodeIndent(d.svc.Snapshot(), "", "  "); err != nil {
		return fmt.Errorf("cloud: checkpoint: %w", err)
	}
	if err := atomicWriteFile(snapshotPath(d.dir, lsn), buf.Bytes()); err != nil {
		return fmt.Errorf("cloud: checkpoint: %w", err)
	}
	return nil
}

// AppliedOps returns the durable watermark: the highest LSN whose
// record reached its shard log (equivalently, how many logged
// operations the cloud has applied over its lifetime, counting any
// allocation gaps left by failed appends — those operations were never
// acknowledged). Restart harnesses use it as the resume oracle.
func (d *Durable) AppliedOps() uint64 { return d.lastAcked.Load() }

// WALShards returns the WAL shard count pinned in the directory.
func (d *Durable) WALShards() int { return len(d.shards) }

// WALShardOf returns the WAL shard index a device's records route to —
// harnesses predicting per-shard watermarks use the same mapping the
// append path uses.
func (d *Durable) WALShardOf(deviceID string) int {
	return int(fnv1a(deviceID) & d.walMask)
}

// ShardWatermarks reports each WAL shard's durability watermark: the
// highest LSN in its log (0 for shards with no records). After a crash
// that killed individual shard logs, the vector tells a resume oracle
// exactly which operations survived where.
func (d *Durable) ShardWatermarks() []uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	marks := make([]uint64, len(d.shards))
	for i, ws := range d.shards {
		ws.mu.Lock()
		if ws.log != nil {
			marks[i] = ws.log.LastLSN()
		}
		ws.mu.Unlock()
	}
	return marks
}

// Recovery reports what OpenDurable rebuilt. The report is written only
// during open, so reading it needs no lock.
func (d *Durable) Recovery() DurableRecovery { return d.recovery }

// DeviceID implements transport.DeviceIDs through the service's registry.
func (d *Durable) DeviceID(raw []byte) string { return d.svc.DeviceID(raw) }

// Service exposes the underlying in-memory service (snapshots,
// diagnostics). Mutating it directly bypasses the WAL.
func (d *Durable) Service() *Service { return d.svc }

// Design returns the design spec the cloud enforces.
func (d *Durable) Design() core.DesignSpec { return d.svc.Design() }

// Snapshot captures the current state (see Service.Snapshot).
func (d *Durable) Snapshot() Snapshot { return d.svc.Snapshot() }

// WriteSnapshot serializes the current state as JSON.
func (d *Durable) WriteSnapshot(w interface{ Write([]byte) (int, error) }) error {
	return d.svc.WriteSnapshot(w)
}

// Close flushes pending liveness notes, then syncs and closes every
// shard log. The directory reopens with OpenDurable; a clean close
// replays to the identical state. The flush is best-effort: unlogged
// liveness is droppable by design, and a WAL that already failed (a
// simulated crash, a dead disk) must not turn Close into an error —
// recovery re-establishes liveness from the next heartbeats.
func (d *Durable) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	_ = d.flushAllLocked()
	var first error
	for _, ws := range d.shards {
		if ws.log == nil {
			continue
		}
		if err := ws.log.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ---- snapshot discovery ----------------------------------------------------

type snapEntry struct {
	lsn  uint64
	path string
}

// listSnapshots enumerates checkpoint files, newest first.
func listSnapshots(dir string) ([]snapEntry, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("cloud: list snapshots: %w", err)
	}
	var snaps []snapEntry
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
			continue
		}
		lsn, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix), 10, 64)
		if err != nil {
			continue
		}
		snaps = append(snaps, snapEntry{lsn: lsn, path: filepath.Join(dir, name)})
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].lsn > snaps[j].lsn })
	return snaps, nil
}

// loadLatestSnapshot returns the newest parseable checkpoint, skipping
// torn ones.
func loadLatestSnapshot(dir string) (uint64, Snapshot, int, error) {
	snaps, err := listSnapshots(dir)
	if err != nil {
		return 0, Snapshot{}, 0, err
	}
	skipped := 0
	for _, s := range snaps {
		f, err := os.Open(s.path)
		if err != nil {
			skipped++
			continue
		}
		snap, err := ReadSnapshot(f)
		f.Close()
		if err != nil {
			skipped++
			continue
		}
		return s.lsn, snap, skipped, nil
	}
	return 0, Snapshot{}, skipped, nil
}

// atomicWriteFile writes data to path via a temp file, fsyncing the
// file before the rename and the directory after, so a crash leaves
// either the old file or the complete new one.
func atomicWriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("cloud: write %s: %w", filepath.Base(path), err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("cloud: write %s: %w", filepath.Base(path), err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("cloud: write %s: %w", filepath.Base(path), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("cloud: write %s: %w", filepath.Base(path), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("cloud: write %s: %w", filepath.Base(path), err)
	}
	df, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("cloud: write %s: %w", filepath.Base(path), err)
	}
	defer df.Close()
	if err := df.Sync(); err != nil {
		return fmt.Errorf("cloud: write %s: %w", filepath.Base(path), err)
	}
	return nil
}
