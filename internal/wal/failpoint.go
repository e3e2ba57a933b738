package wal

import "errors"

// Stage identifies a point in the append/sync path where a crash
// failpoint may fire. The stages bracket the interesting durability
// boundaries: a crash between stageFrameHeader and StageFramePayload
// leaves a torn frame; a crash at stageBeforeSync loses acknowledged
// group-commit records; a crash at stageAfterSync loses nothing that
// was synced.
type Stage uint8

// The failpoint stages, in write-path order.
const (
	// stageFrameHeader fires after a frame's header bytes are buffered
	// but before any payload byte.
	stageFrameHeader Stage = iota + 1
	// StageFramePayload fires with roughly half the payload buffered.
	StageFramePayload
	// stageBeforeSync fires immediately before an fsync.
	stageBeforeSync
	// stageAfterSync fires immediately after a completed fsync.
	stageAfterSync
)

// String implements fmt.Stringer.
func (s Stage) String() string {
	switch s {
	case stageFrameHeader:
		return "frame_header"
	case StageFramePayload:
		return "frame_payload"
	case stageBeforeSync:
		return "before_sync"
	case stageAfterSync:
		return "after_sync"
	default:
		return "unknown"
	}
}

// Crash selects what a firing failpoint does to the bytes in flight.
type Crash uint8

// The crash modes.
const (
	// CrashNone lets the operation proceed (the failpoint observed the
	// stage without crashing — counting passes use this).
	CrashNone Crash = iota
	// CrashKeep flushes buffered bytes into the segment file before
	// dying: partially written frames reach disk, producing the torn
	// tail recovery must truncate.
	CrashKeep
	// CrashDrop discards everything written since the last fsync —
	// buffered bytes and flushed-but-unsynced bytes alike — modelling a
	// power loss that empties the page cache.
	CrashDrop
)

// Failpoint decides, at each stage event, whether the log crashes and
// how. A nil Failpoint never fires. The callback runs with the log's
// lock held; it must not call back into the log.
type Failpoint func(Stage) Crash

// ErrCrashed is returned by every operation on a log that has taken a
// simulated crash. The on-disk state is frozen exactly as the crash
// mode left it; reopening the directory is the only way forward.
var ErrCrashed = errors.New("wal: simulated crash")
