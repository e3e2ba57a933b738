package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Defaults for Options fields left zero.
const (
	// defaultSegmentSize rotates segments at 4 MiB — large enough to
	// amortize file creation, small enough that snapshot-anchored
	// truncation reclaims space promptly.
	defaultSegmentSize = 4 << 20
	// defaultGroupEvery is the group-commit window: under SyncGrouped
	// the log fsyncs once per this many appends.
	defaultGroupEvery = 32
	// writerBufSize is the bufio buffer in front of the segment file.
	writerBufSize = 64 << 10
)

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

// The fsync policies.
const (
	// SyncGrouped fsyncs once every GroupEvery appends (group commit):
	// a crash loses at most the last unsynced group. Without a
	// failpoint the fsync runs on a background flusher, so the append
	// path never blocks on the disk; the loss window is bounded by the
	// records appended while one flush is in flight (< 2×GroupEvery in
	// practice).
	SyncGrouped SyncPolicy = iota
	// SyncEveryRecord fsyncs after every append: nothing acknowledged
	// is ever lost. Concurrent appenders share fsyncs through a commit
	// queue — one leader flushes and syncs the coalesced batch while
	// the followers wait for its notification — so the per-append cost
	// under load approaches SyncGrouped while keeping the per-record
	// durability contract.
	SyncEveryRecord
	// SyncOff never fsyncs on the append path; the OS writes back at
	// its leisure. Close and explicit Sync still flush.
	SyncOff
)

// String implements fmt.Stringer.
func (p SyncPolicy) String() string {
	switch p {
	case SyncEveryRecord:
		return "every"
	case SyncGrouped:
		return "grouped"
	case SyncOff:
		return "off"
	default:
		return "unknown"
	}
}

// Options configures a log. The zero value is usable: 4 MiB segments,
// 1 MiB records, group commit every 32 appends.
type Options struct {
	// SegmentSize is the rotation threshold in bytes.
	SegmentSize int
	// MaxRecord bounds one record's payload.
	MaxRecord int
	// Policy selects the fsync policy.
	Policy SyncPolicy
	// GroupEvery is the group-commit window under SyncGrouped.
	GroupEvery int
	// Failpoint, when non-nil, is consulted at each write-path stage
	// and may inject a simulated crash (crash-fault testing). Arming a
	// failpoint also forces every fsync inline under the log lock (no
	// commit queue, no background flusher) so seeded kill schedules
	// stay deterministic.
	Failpoint Failpoint

	// syncHook, when non-nil, intercepts the result of every group
	// fsync (test-only: error injection for leader/follower
	// propagation tests).
	syncHook func(err error) error
	// closeHook, when non-nil, intercepts the result of every segment
	// file close on the write path — rotation and shutdown (test-only:
	// close-error injection for the exactly-once close contract).
	closeHook func(err error) error
}

func (o Options) withDefaults() Options {
	if o.SegmentSize <= 0 {
		o.SegmentSize = defaultSegmentSize
	}
	if o.MaxRecord <= 0 {
		o.MaxRecord = defaultMaxRecord
	}
	if o.GroupEvery <= 0 {
		o.GroupEvery = defaultGroupEvery
	}
	return o
}

// errClosed is returned by operations on a closed log.
var errClosed = errors.New("wal: log closed")

// segmentMeta tracks one on-disk segment.
type segmentMeta struct {
	path  string
	first uint64 // LSN of the segment's first record
}

// commitWaiter is one queued appender awaiting a group fsync.
type commitWaiter struct {
	done chan struct{}
	err  error
}

// Log is a segmented append-only write-ahead log. All methods are safe
// for concurrent use; appends are serialized internally.
//
// Records carry strictly increasing LSNs, which need not be dense: a
// per-shard log holds a subsequence of one globally allocated LSN
// stream, so it sees gaps where sibling shards own the missing numbers.
// Each segment is named by the LSN of its first record.
type Log struct {
	dir  string
	opts Options

	mu         sync.Mutex
	f          *os.File // nil before the first append names a segment
	w          *bufio.Writer
	segments   []segmentMeta // sorted; last is the active segment
	segSize    int64         // bytes written to the active segment (incl. buffered)
	syncedSize int64         // active-segment size at the last fsync
	nextLSN    uint64
	sinceSync  int
	scratch    []byte
	recovery   RecoveryInfo
	crashed    bool
	closed     bool
	err        error // sticky I/O error

	// Group-commit state (only active when no failpoint is armed).
	syncing  bool       // a leader fsync is in flight with mu released
	syncCond *sync.Cond // broadcast when syncing clears
	leading  bool       // a commit-queue leader is draining waiters
	waiters  []*commitWaiter

	// Background flusher (SyncGrouped without a failpoint).
	flushC      chan struct{}
	flusherStop chan struct{}
	flusherWG   sync.WaitGroup
}

// RecoveryInfo describes what Open found and repaired.
type RecoveryInfo struct {
	// Report is the directory scan at open time.
	Report ScanReport
	// TruncatedBytes is how much torn tail Open cut off the last
	// segment (0 when the log was clean).
	TruncatedBytes int64
}

// Open scans dir, truncates a torn tail if the last segment has one,
// and opens the log for appending after the last valid record. The
// directory is created if absent.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	report, err := Scan(dir, opts.MaxRecord, nil)
	if err != nil {
		return nil, err
	}

	l := &Log{dir: dir, opts: opts, recovery: RecoveryInfo{Report: report}}
	l.syncCond = sync.NewCond(&l.mu)

	for _, seg := range report.Segments {
		l.segments = append(l.segments, segmentMeta{path: seg.Path, first: seg.FirstLSN})
	}

	truncateTorn := report.Torn
	// A segment torn down to zero records is deleted rather than reused:
	// its name pins a first LSN that a globally allocated sequence may
	// never produce again after the crash (the record that named it was
	// lost before any shard acked it), so keeping the file would break the
	// name==first-frame invariant on a later, smaller LSN.
	if n := len(l.segments); n > 0 {
		if last := report.Segments[n-1]; last.Records == 0 {
			if err := os.Remove(last.Path); err != nil {
				return nil, fmt.Errorf("wal: remove dead segment: %w", err)
			}
			if err := syncDir(dir); err != nil {
				return nil, err
			}
			l.segments = l.segments[:n-1]
			if report.Torn && report.TornSegment == last.Path {
				truncateTorn = false
				l.recovery.TruncatedBytes = report.TornBytes
			}
		}
	}
	l.nextLSN = report.LastLSN + 1

	if truncateTorn {
		if err := os.Truncate(report.TornSegment, report.TornOffset); err != nil {
			return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
		l.recovery.TruncatedBytes = report.TornBytes
	}

	if n := len(l.segments); n > 0 {
		active := l.segments[n-1]
		f, err := os.OpenFile(active.path, os.O_WRONLY, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: open segment: %w", err)
		}
		size, err := f.Seek(0, io.SeekEnd)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: seek segment: %w", err)
		}
		if truncateTorn {
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, fmt.Errorf("wal: sync truncated segment: %w", err)
			}
		}
		l.f = f
		l.segSize = size
		l.syncedSize = size
		l.w = bufio.NewWriterSize(f, writerBufSize)
	}
	// A log with no surviving segments defers segment creation until the
	// first append names the file (l.f stays nil).

	if opts.Policy == SyncGrouped && opts.Failpoint == nil {
		l.flushC = make(chan struct{}, 1)
		l.flusherStop = make(chan struct{})
		l.flusherWG.Add(1)
		go l.flusher()
	}
	return l, nil
}

// Recovery reports what Open found and repaired.
func (l *Log) Recovery() RecoveryInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.recovery
}

// LastLSN returns the sequence number of the last appended record, or 0
// when the log is empty. For a per-shard log this is the shard's
// durability watermark.
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// Segments returns the on-disk segment paths, oldest first.
func (l *Log) Segments() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, len(l.segments))
	for i, s := range l.segments {
		out[i] = s.path
	}
	return out
}

// segmentPath names a segment by its first LSN; the zero-padded fixed
// width keeps lexical and numeric order identical.
func segmentPath(dir string, first uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%020d.wal", first))
}

// openSegmentLocked creates and activates a fresh segment whose first
// record will carry the given LSN.
func (l *Log) openSegmentLocked(first uint64) error {
	path := segmentPath(l.dir, first)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.w = bufio.NewWriterSize(f, writerBufSize)
	l.segSize = 0
	l.syncedSize = 0
	l.segments = append(l.segments, segmentMeta{path: path, first: first})
	return nil
}

// Append writes one record under the LSN after the last and returns it.
// Depending on the sync policy the record may or may not be on stable
// storage when Append returns; Sync forces the matter.
func (l *Log) Append(payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	lsn := l.nextLSN
	if err := l.appendLocked(lsn, payload); err != nil {
		return 0, err
	}
	return lsn, nil
}

// AppendLSN writes one record under a caller-allocated LSN, which must
// exceed every previously appended one (a gap belongs to sibling
// shards).
func (l *Log) AppendLSN(lsn uint64, payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lsn < l.nextLSN {
		return fmt.Errorf("%w: append LSN %d not past %d", errBadLSN, lsn, l.nextLSN-1)
	}
	return l.appendLocked(lsn, payload)
}

func (l *Log) appendLocked(lsn uint64, payload []byte) error {
	if err := l.usableLocked(); err != nil {
		return err
	}
	if len(payload) == 0 {
		return fmt.Errorf("wal: append: %w: empty record", errBadFrame)
	}
	if len(payload) > l.opts.MaxRecord {
		return fmt.Errorf("wal: append: %w: %d bytes", errFrameTooLarge, len(payload))
	}

	l.scratch = AppendFrame(l.scratch[:0], lsn, payload)
	frame := l.scratch

	if l.f == nil {
		// Deferred first segment: named by the record that creates it.
		if err := l.openSegmentLocked(lsn); err != nil {
			return err
		}
	} else if l.segSize > 0 && l.segSize+int64(len(frame)) > int64(l.opts.SegmentSize) {
		// Rotate before the record that would overflow the segment, so a
		// frame never spans files. Rotation syncs the outgoing segment:
		// unsynced bytes never straddle a segment boundary.
		if err := l.rotateLocked(lsn); err != nil {
			return err
		}
	}

	if err := l.writeFrameLocked(frame); err != nil {
		return err
	}
	l.segSize += int64(len(frame))
	l.nextLSN = lsn + 1
	l.sinceSync++

	switch l.opts.Policy {
	case SyncEveryRecord:
		if l.opts.Failpoint != nil {
			return l.syncLocked()
		}
		return l.commitLocked()
	case SyncGrouped:
		if l.sinceSync >= l.opts.GroupEvery {
			if l.opts.Failpoint != nil {
				return l.syncLocked()
			}
			select {
			case l.flushC <- struct{}{}:
			default:
			}
		}
	}
	return nil
}

// commitLocked implements cross-request group commit for
// SyncEveryRecord. The caller has buffered its frame under mu. The
// first arrival becomes the leader: it flushes and fsyncs the
// coalesced batch (fsync outside the lock) and notifies every waiter
// with the shared result; later arrivals enqueue and block on that
// notification, so N concurrent appends cost one fsync. A failed group
// fsync fails every waiter in the batch with the same error and leaves
// the log sticky-failed — no record is silently acked past a failed
// sync.
func (l *Log) commitLocked() error {
	w := &commitWaiter{done: make(chan struct{})}
	l.waiters = append(l.waiters, w)
	if l.leading {
		l.mu.Unlock()
		<-w.done
		l.mu.Lock()
		return w.err
	}
	l.leading = true
	for len(l.waiters) > 0 {
		batch := l.waiters
		l.waiters = nil
		err := l.groupSyncLocked()
		for _, bw := range batch {
			bw.err = err
			close(bw.done)
		}
	}
	l.leading = false
	return w.err
}

// groupSyncLocked flushes the write buffer under mu, then releases mu
// for the fsync itself so concurrent appenders can keep buffering
// frames behind it. Rotation, Close and inline syncs wait on syncCond
// until the in-flight fsync completes, so the file handle can never be
// closed underneath it.
func (l *Log) groupSyncLocked() error {
	for l.syncing {
		l.syncCond.Wait()
	}
	if err := l.usableLocked(); err != nil {
		return err
	}
	if l.f == nil {
		return nil
	}
	if err := l.w.Flush(); err != nil {
		return l.fail(err)
	}
	f, size, records := l.f, l.segSize, l.sinceSync
	l.syncing = true
	l.mu.Unlock()
	serr := f.Sync()
	if l.opts.syncHook != nil {
		serr = l.opts.syncHook(serr)
	}
	l.mu.Lock()
	l.syncing = false
	l.syncCond.Broadcast()
	if serr != nil {
		return l.fail(serr)
	}
	if size > l.syncedSize {
		l.syncedSize = size
	}
	l.sinceSync -= records
	if l.sinceSync < 0 {
		l.sinceSync = 0
	}
	return nil
}

// flusher is the SyncGrouped background fsync goroutine: the append
// path signals it when a group's worth of records has accumulated and
// never blocks on the disk itself.
func (l *Log) flusher() {
	defer l.flusherWG.Done()
	for {
		select {
		case <-l.flusherStop:
			return
		case <-l.flushC:
		}
		l.mu.Lock()
		if !l.closed && !l.crashed && l.err == nil && l.sinceSync > 0 {
			_ = l.groupSyncLocked() // errors are sticky; appenders see them
		}
		l.mu.Unlock()
	}
}

// writeFrameLocked pushes one encoded frame into the buffered writer,
// consulting the failpoint at the mid-frame stages.
func (l *Log) writeFrameLocked(frame []byte) error {
	fp := l.opts.Failpoint
	if fp == nil {
		if _, err := l.w.Write(frame); err != nil {
			return l.fail(err)
		}
		return nil
	}
	hdr, payload := frame[:frameHeaderSize], frame[frameHeaderSize:]
	if _, err := l.w.Write(hdr); err != nil {
		return l.fail(err)
	}
	if c := fp(stageFrameHeader); c != CrashNone {
		return l.crashLocked(c)
	}
	half := len(payload) / 2
	if _, err := l.w.Write(payload[:half]); err != nil {
		return l.fail(err)
	}
	if c := fp(StageFramePayload); c != CrashNone {
		return l.crashLocked(c)
	}
	if _, err := l.w.Write(payload[half:]); err != nil {
		return l.fail(err)
	}
	return nil
}

// Sync flushes buffered records and fsyncs the active segment.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	if l.opts.Failpoint != nil {
		return l.syncLocked()
	}
	return l.groupSyncLocked()
}

// Flush pushes buffered appends into the segment file without forcing
// them to stable storage. Readers that tail the on-disk segments (a
// replication shipper's Tailer) see everything appended so far after a
// Flush; durability still follows the sync policy.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	if l.w == nil {
		return nil
	}
	if err := l.w.Flush(); err != nil {
		return l.fail(err)
	}
	return nil
}

func (l *Log) syncLocked() error {
	for l.syncing {
		l.syncCond.Wait()
	}
	if l.f == nil {
		return nil
	}
	if fp := l.opts.Failpoint; fp != nil {
		if c := fp(stageBeforeSync); c != CrashNone {
			return l.crashLocked(c)
		}
	}
	if err := l.w.Flush(); err != nil {
		return l.fail(err)
	}
	if err := l.f.Sync(); err != nil {
		return l.fail(err)
	}
	l.syncedSize = l.segSize
	l.sinceSync = 0
	if fp := l.opts.Failpoint; fp != nil {
		if c := fp(stageAfterSync); c != CrashNone {
			return l.crashLocked(c)
		}
	}
	return nil
}

// rotateLocked seals the active segment (flush + fsync) and opens the
// next one, whose first record will carry first.
func (l *Log) rotateLocked(first uint64) error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	cerr := l.f.Close()
	if l.opts.closeHook != nil {
		cerr = l.opts.closeHook(cerr)
	}
	// The handle is spent either way: drop the references so no later
	// path (Close, a retried append) closes it a second time — a second
	// close would mask the real error with os.ErrClosed.
	l.f, l.w = nil, nil
	if cerr != nil {
		return l.fail(cerr)
	}
	return l.openSegmentLocked(first)
}

// crashLocked applies a simulated crash. CrashKeep flushes the write
// buffer so partial frames land in the file (the torn tail); CrashDrop
// truncates back to the last fsync, losing every unsynced byte. Either
// way the log is dead afterwards.
func (l *Log) crashLocked(c Crash) error {
	switch c {
	case CrashKeep:
		_ = l.w.Flush()
		_ = l.f.Sync()
	case CrashDrop:
		l.w.Reset(l.f) // discard buffered bytes
		_ = l.f.Truncate(l.syncedSize)
		_ = l.f.Sync()
	}
	_ = l.f.Close()
	l.crashed = true
	return ErrCrashed
}

// fail records a sticky I/O error.
func (l *Log) fail(err error) error {
	err = fmt.Errorf("wal: %w", err)
	if l.err == nil {
		l.err = err
	}
	return err
}

func (l *Log) usableLocked() error {
	switch {
	case l.closed:
		return errClosed
	case l.crashed:
		return ErrCrashed
	case l.err != nil:
		return l.err
	}
	return nil
}

// Replay streams every record with LSN >= from, in order, through fn.
// It reads the on-disk segments after flushing buffered appends (no
// fsync), so it observes everything appended so far. Appends are held
// off for the duration.
func (l *Log) Replay(from uint64, fn func(lsn uint64, payload []byte) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	if l.w != nil {
		if err := l.w.Flush(); err != nil {
			return l.fail(err)
		}
	}
	_, err := Scan(l.dir, l.opts.MaxRecord, func(lsn uint64, payload []byte) error {
		if lsn < from {
			return nil
		}
		return fn(lsn, payload)
	})
	return err
}

// TruncateBefore deletes segments whose records all precede keep —
// they are wholly covered by a snapshot at keep-1. The active segment
// survives regardless, so the LSN chain stays anchored on disk. It
// returns how many segments were removed.
func (l *Log) TruncateBefore(keep uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return 0, err
	}
	removed := 0
	for len(l.segments) > 1 && l.segments[1].first <= keep {
		if err := os.Remove(l.segments[0].path); err != nil {
			return removed, fmt.Errorf("wal: truncate: %w", err)
		}
		l.segments = l.segments[1:]
		removed++
	}
	if removed > 0 {
		if err := syncDir(l.dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// Close flushes, fsyncs and closes the log. A crashed log closes
// without touching the file again. A log that already failed sticky —
// a background-flusher fsync error, a rotation whose close failed —
// surfaces that original error instead of a follow-on artifact of
// shutting down the dead handle (previously the shutdown error paths
// could close the segment file twice, masking the first error with
// os.ErrClosed).
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	for l.syncing {
		l.syncCond.Wait()
	}
	l.closed = true
	stop := l.flusherStop
	var err error
	switch {
	case l.crashed:
		// crashLocked already closed the file.
	case l.f == nil:
		// Nothing open (a log before its first append, or a
		// failed rotation already spent the handle): report the sticky
		// error, if any, rather than swallowing it.
		err = l.err
	default:
		// Flush and sync best-effort, then close the handle exactly
		// once, whatever failed before it.
		ferr := l.w.Flush()
		var serr error
		if ferr == nil {
			serr = l.f.Sync()
		}
		cerr := l.f.Close()
		if l.opts.closeHook != nil {
			cerr = l.opts.closeHook(cerr)
		}
		l.f, l.w = nil, nil
		switch {
		case ferr != nil:
			err = l.fail(ferr)
		case serr != nil:
			err = l.fail(serr)
		case cerr != nil:
			err = l.fail(cerr)
		default:
			err = l.err
		}
	}
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		l.flusherWG.Wait()
	}
	return err
}

// SegmentInfo describes one scanned segment.
type SegmentInfo struct {
	// Path is the segment file.
	Path string
	// FirstLSN is the segment's name: the LSN of its first record.
	FirstLSN uint64
	// Records is how many valid frames the segment holds.
	Records int
	// Bytes is the segment's valid prefix length.
	Bytes int64
}

// ScanReport summarizes a directory scan.
type ScanReport struct {
	// Segments are the scanned segments, oldest first.
	Segments []SegmentInfo
	// Records is the total valid frame count.
	Records int
	// FirstLSN and LastLSN bound the valid records (both 0 when the
	// log is empty).
	FirstLSN, LastLSN uint64
	// Torn reports a torn tail: the last segment ends in bytes that do
	// not parse as a complete valid frame.
	Torn bool
	// TornSegment, TornOffset and TornBytes locate the tear: the file,
	// the offset of the last valid frame boundary, and how many bytes
	// dangle past it.
	TornSegment string
	TornOffset  int64
	TornBytes   int64
	// TornReason is the parse error that ended the scan.
	TornReason string
}

// Scan reads every segment in dir in order, verifying frame checksums,
// that LSNs strictly increase and that each segment's first record
// matches the segment name, optionally streaming payloads through fn.
// Gaps between consecutive LSNs are legal: the missing numbers belong to
// sibling shards. Damage in the last segment is reported as a torn tail
// (recoverable by truncation); damage anywhere else is ErrCorrupt. Scan
// never mutates the directory — Open is the repairing entry point.
func Scan(dir string, maxRecord int, fn func(lsn uint64, payload []byte) error) (ScanReport, error) {
	if maxRecord <= 0 {
		maxRecord = defaultMaxRecord
	}
	var report ScanReport

	names, err := listSegments(dir)
	if err != nil {
		return report, err
	}
	for i, seg := range names {
		last := i == len(names)-1
		if report.Records > 0 && seg.first <= report.LastLSN {
			return report, fmt.Errorf("%w: segment %s starts at LSN %d, not past %d",
				ErrCorrupt, filepath.Base(seg.path), seg.first, report.LastLSN)
		}
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return report, fmt.Errorf("wal: scan: %w", err)
		}
		info := SegmentInfo{Path: seg.path, FirstLSN: seg.first}
		prev := uint64(0)
		started := false
		off := 0
		for off < len(data) {
			lsn, payload, frameLen, perr := ParseFrame(data[off:], maxRecord)
			if perr == nil {
				switch {
				case !started && lsn != seg.first:
					perr = fmt.Errorf("%w: frame at offset %d has LSN %d, segment named %d",
						errBadLSN, off, lsn, seg.first)
				case started && lsn <= prev:
					perr = fmt.Errorf("%w: frame at offset %d has LSN %d, not past %d",
						errBadLSN, off, lsn, prev)
				}
			}
			if perr != nil {
				if !last {
					return report, fmt.Errorf("%w: %s at offset %d: %v",
						ErrCorrupt, filepath.Base(seg.path), off, perr)
				}
				report.Torn = true
				report.TornSegment = seg.path
				report.TornOffset = int64(off)
				report.TornBytes = int64(len(data) - off)
				report.TornReason = perr.Error()
				break
			}
			if fn != nil {
				if ferr := fn(lsn, payload); ferr != nil {
					return report, ferr
				}
			}
			if report.Records == 0 {
				report.FirstLSN = lsn
			}
			report.LastLSN = lsn
			report.Records++
			info.Records++
			prev = lsn
			started = true
			off += frameLen
		}
		info.Bytes = int64(off)
		if report.Torn {
			info.Bytes = report.TornOffset
		}
		report.Segments = append(report.Segments, info)
	}
	return report, nil
}

// listSegments enumerates dir's segment files in LSN order. Non-WAL
// files (snapshots, metadata) and subdirectories (per-shard logs) are
// ignored.
func listSegments(dir string) ([]segmentMeta, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: scan: %w", err)
	}
	var segs []segmentMeta
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".wal") {
			continue
		}
		first, err := strconv.ParseUint(strings.TrimSuffix(name, ".wal"), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: unparseable segment name %q", ErrCorrupt, name)
		}
		segs = append(segs, segmentMeta{path: filepath.Join(dir, name), first: first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}

// syncDir fsyncs a directory so entry creation/removal is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}
