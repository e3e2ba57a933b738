// Command walinspect examines the durability subsystem's write-ahead
// logs offline: dumping records, verifying segment integrity, and
// self-checking the scanner against a generated crash corpus.
//
// Usage:
//
//	walinspect dump <dir>      print every record: LSN, size and the
//	                           decoded operation. Every record is binary
//	                           (tag, time, the operation's wirecodec
//	                           body) and dump decodes all thirteen tags:
//	                           status, liveness, delegate,
//	                           revoke_delegation, share, register_user,
//	                           login, device_token, bind_token, bind,
//	                           unbind, control and push
//	walinspect verify <dir>    scan read-only and report integrity
//	walinspect replica <replica-dir> <primary-dir>
//	                           verify the replica's log is a byte-identical
//	                           prefix of the primary's and report lag
//	walinspect selfcheck       generate torn/corrupt logs in a temp dir
//	                           and verify the scanner classifies them
//
// <dir> is a WAL directory, or a cloud.Durable state directory (its
// wal/ subdirectory is used). Both layouts are understood: a legacy
// single-directory log, and the sharded layout (shard-NNN
// subdirectories of per-shard logs merged by global LSN, with
// per-shard watermarks reported and duplicate LSNs across shards
// rejected). verify exits 0 on a clean log and on a torn tail — the
// expected shape after a crash, truncated on the next open — and 1 on
// corruption anywhere before a tail, including cross-shard duplicates.
package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/iotbind/iotbind/internal/wal"
	"github.com/iotbind/iotbind/internal/wirecodec"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		fmt.Fprintln(stderr, "usage: walinspect dump|verify <dir> | walinspect replica <replica-dir> <primary-dir> | walinspect selfcheck")
		return 2
	}
	switch args[0] {
	case "dump", "verify":
		if len(args) != 2 {
			fmt.Fprintf(stderr, "usage: walinspect %s <dir>\n", args[0])
			return 2
		}
		return inspect(args[0], walDir(args[1]), stdout, stderr)
	case "replica":
		if len(args) != 3 {
			fmt.Fprintln(stderr, "usage: walinspect replica <replica-dir> <primary-dir>")
			return 2
		}
		return inspectReplica(walDir(args[1]), walDir(args[2]), stdout, stderr)
	case "selfcheck":
		return selfcheck(stdout, stderr)
	default:
		fmt.Fprintf(stderr, "walinspect: unknown command %q\n", args[0])
		return 2
	}
}

// walDir resolves a cloud.Durable state directory to its wal/
// subdirectory, passing plain WAL directories through.
func walDir(dir string) string {
	sub := filepath.Join(dir, "wal")
	if fi, err := os.Stat(sub); err == nil && fi.IsDir() {
		return sub
	}
	return dir
}

func inspect(cmd, dir string, stdout, stderr io.Writer) int {
	// Scan treats a missing directory as an empty log (Open creates it);
	// for an inspector that would silently "verify" a typo'd path.
	if _, err := os.Stat(dir); err != nil {
		fmt.Fprintf(stderr, "walinspect: %v\n", err)
		return 1
	}
	if wal.IsShardedDir(dir) {
		return inspectSharded(cmd, dir, stdout, stderr)
	}
	report, err := wal.Scan(dir, 0, func(lsn uint64, payload []byte) error {
		if cmd != "dump" {
			return nil
		}
		desc, derr := wirecodec.DescribeRecord(payload)
		if derr != nil {
			desc = fmt.Sprintf("undecodable payload: %v", derr)
		}
		fmt.Fprintf(stdout, "%8d  %6dB  %s\n", lsn, len(payload), desc)
		return nil
	})
	if err != nil {
		fmt.Fprintf(stderr, "walinspect: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s: %d segment(s), %d record(s), LSN %d..%d\n",
		dir, len(report.Segments), report.Records, report.FirstLSN, report.LastLSN)
	if report.Torn {
		fmt.Fprintf(stdout, "torn tail in %s at offset %d (%d byte(s), %v) — truncated on next open\n",
			filepath.Base(report.TornSegment), report.TornOffset, report.TornBytes, report.TornReason)
	}
	return 0
}

// inspectSharded handles the per-shard layout: each shard log scans on
// its own, the records stream out merged in global LSN
// order, and the summary reports every shard's durability watermark. A
// duplicate LSN across shards — two logs claiming the same slot of the
// global stream — is corruption and exits 1.
func inspectSharded(cmd, dir string, stdout, stderr io.Writer) int {
	records := 0
	var first, last uint64
	reports, err := wal.MergeShards(dir, 0, 0, func(shard int, lsn uint64, payload []byte) error {
		if records == 0 {
			first = lsn
		}
		records++
		last = lsn
		if cmd != "dump" {
			return nil
		}
		desc, derr := wirecodec.DescribeRecord(payload)
		if derr != nil {
			desc = fmt.Sprintf("undecodable payload: %v", derr)
		}
		fmt.Fprintf(stdout, "%8d  %s  %6dB  %s\n", lsn, wal.ShardDirName(shard), len(payload), desc)
		return nil
	})
	if err != nil {
		fmt.Fprintf(stderr, "walinspect: %v\n", err)
		return 1
	}
	segs := 0
	for _, r := range reports {
		segs += len(r.Report.Segments)
	}
	fmt.Fprintf(stdout, "%s: %d shard(s), %d segment(s), %d record(s), LSN %d..%d\n",
		dir, len(reports), segs, records, first, last)
	for _, r := range reports {
		fmt.Fprintf(stdout, "  %s: %d record(s), watermark %d\n",
			wal.ShardDirName(r.Shard), r.Report.Records, r.Watermark())
		if r.Report.Torn {
			fmt.Fprintf(stdout, "  %s: torn tail in %s at offset %d (%d byte(s), %v) — truncated on next open\n",
				wal.ShardDirName(r.Shard), filepath.Base(r.Report.TornSegment),
				r.Report.TornOffset, r.Report.TornBytes, r.Report.TornReason)
		}
	}
	return 0
}

// walRecord is one collected log record for replica comparison.
type walRecord struct {
	shard   int
	payload []byte
}

// collectRecords reads a WAL directory (sharded or legacy) into an
// LSN-keyed map plus the highest LSN seen.
func collectRecords(dir string) (map[uint64]walRecord, uint64, error) {
	recs := make(map[uint64]walRecord)
	var last uint64
	note := func(shard int, lsn uint64, payload []byte) {
		recs[lsn] = walRecord{shard: shard, payload: append([]byte(nil), payload...)}
		if lsn > last {
			last = lsn
		}
	}
	if wal.IsShardedDir(dir) {
		_, err := wal.MergeShards(dir, 0, 0, func(shard int, lsn uint64, payload []byte) error {
			note(shard, lsn, payload)
			return nil
		})
		return recs, last, err
	}
	_, err := wal.Scan(dir, 0, func(lsn uint64, payload []byte) error {
		note(0, lsn, payload)
		return nil
	})
	return recs, last, err
}

// inspectReplica verifies the replication invariant offline: the
// replica's log must be a byte-identical prefix of the primary's —
// same records on the same shards up to the replica's watermark,
// nothing beyond it. Exits 0 with the lag report when the invariant
// holds, 1 on any divergence (including a replica ahead of its
// primary, which means the primary lost acked records).
func inspectReplica(replicaDir, primaryDir string, stdout, stderr io.Writer) int {
	for _, dir := range []string{replicaDir, primaryDir} {
		if _, err := os.Stat(dir); err != nil {
			fmt.Fprintf(stderr, "walinspect: %v\n", err)
			return 1
		}
	}
	rep, repLast, err := collectRecords(replicaDir)
	if err != nil {
		fmt.Fprintf(stderr, "walinspect: replica: %v\n", err)
		return 1
	}
	pri, priLast, err := collectRecords(primaryDir)
	if err != nil {
		fmt.Fprintf(stderr, "walinspect: primary: %v\n", err)
		return 1
	}
	if repLast > priLast {
		fmt.Fprintf(stderr, "walinspect: replica watermark %d ahead of primary %d — the primary lost acked records, or this replica was promoted and kept serving\n", repLast, priLast)
		return 1
	}
	for lsn, r := range rep {
		p, ok := pri[lsn]
		if !ok {
			fmt.Fprintf(stderr, "walinspect: replica holds LSN %d the primary never logged\n", lsn)
			return 1
		}
		if p.shard != r.shard {
			fmt.Fprintf(stderr, "walinspect: LSN %d on shard %d of the replica but shard %d of the primary\n", lsn, r.shard, p.shard)
			return 1
		}
		if !bytes.Equal(p.payload, r.payload) {
			fmt.Fprintf(stderr, "walinspect: LSN %d differs between replica and primary — replay would diverge\n", lsn)
			return 1
		}
	}
	// Prefix completeness: everything the primary logged at or below the
	// replica's watermark must have arrived (shipping is in LSN order,
	// so a hole below the watermark means records were dropped).
	for lsn := range pri {
		if lsn <= repLast {
			if _, ok := rep[lsn]; !ok {
				fmt.Fprintf(stderr, "walinspect: primary LSN %d missing from replica below its watermark %d\n", lsn, repLast)
				return 1
			}
		}
	}
	fmt.Fprintf(stdout, "replica ok: %d/%d record(s), watermark %d/%d, lag %d record(s)\n",
		len(rep), len(pri), repLast, priLast, len(pri)-len(rep))
	return 0
}

// selfcheck builds a small crash corpus — a clean log, a log with a
// torn tail, and a log corrupted before the tail — and verifies the
// scanner classifies each correctly. It is the integrity gate CI runs:
// no persisted fixtures, the corpus is regenerated every time.
func selfcheck(stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintf(stderr, "walinspect: selfcheck: %v\n", err)
		return 1
	}
	root, err := os.MkdirTemp("", "walinspect-*")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(root)

	build := func(name string) (string, error) {
		dir := filepath.Join(root, name)
		log, err := wal.Open(dir, wal.Options{SegmentSize: 256})
		if err != nil {
			return "", err
		}
		for i := 0; i < 32; i++ {
			if _, err := log.Append([]byte(fmt.Sprintf("{\"op\":\"selfcheck\",\"i\":%d}", i))); err != nil {
				log.Close()
				return "", err
			}
		}
		return dir, log.Close()
	}

	// Case 1: a clean multi-segment log scans whole.
	clean, err := build("clean")
	if err != nil {
		return fail(err)
	}
	report, err := wal.Scan(clean, 0, nil)
	if err != nil {
		return fail(err)
	}
	if report.Records != 32 || report.Torn || len(report.Segments) < 2 {
		return fail(fmt.Errorf("clean log misread: %+v", report))
	}

	// Case 2: a torn tail (half a frame of garbage) is reported, not
	// fatal, and the log reopens with the tail truncated.
	torn, err := build("torn")
	if err != nil {
		return fail(err)
	}
	if err := appendGarbage(torn, []byte{0x55, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		return fail(err)
	}
	report, err = wal.Scan(torn, 0, nil)
	if err != nil {
		return fail(err)
	}
	if !report.Torn || report.Records != 32 {
		return fail(fmt.Errorf("torn tail misread: %+v", report))
	}
	log, err := wal.Open(torn, wal.Options{SegmentSize: 256})
	if err != nil {
		return fail(fmt.Errorf("torn log did not reopen: %w", err))
	}
	if rec := log.Recovery(); rec.TruncatedBytes == 0 {
		log.Close()
		return fail(fmt.Errorf("reopen did not truncate the torn tail: %+v", rec))
	}
	if err := log.Close(); err != nil {
		return fail(err)
	}

	// Case 3: corruption before the tail is fatal, never truncated.
	corrupt, err := build("corrupt")
	if err != nil {
		return fail(err)
	}
	if err := flipFirstSegmentByte(corrupt); err != nil {
		return fail(err)
	}
	if _, err := wal.Scan(corrupt, 0, nil); !errors.Is(err, wal.ErrCorrupt) {
		return fail(fmt.Errorf("mid-log corruption scanned as %v, want ErrCorrupt", err))
	}

	// Case 4: a clean sharded layout — interleaved per-shard slices of
	// one global stream — merges whole, in order.
	buildShard := func(parent string, idx int, lsns ...uint64) error {
		log, err := wal.Open(filepath.Join(parent, wal.ShardDirName(idx)),
			wal.Options{SegmentSize: 256})
		if err != nil {
			return err
		}
		for _, lsn := range lsns {
			if err := log.AppendLSN(lsn, []byte(fmt.Sprintf("{\"op\":\"selfcheck\",\"lsn\":%d}", lsn))); err != nil {
				log.Close()
				return err
			}
		}
		return log.Close()
	}
	sharded := filepath.Join(root, "sharded")
	if err := buildShard(sharded, 0, 1, 3, 5, 8); err != nil {
		return fail(err)
	}
	if err := buildShard(sharded, 1, 2, 4, 7); err != nil {
		return fail(err)
	}
	var prev uint64
	merged := 0
	if _, err := wal.MergeShards(sharded, 0, 0, func(shard int, lsn uint64, payload []byte) error {
		if lsn <= prev {
			return fmt.Errorf("merged stream out of order: %d after %d", lsn, prev)
		}
		prev = lsn
		merged++
		return nil
	}); err != nil {
		return fail(err)
	}
	if merged != 7 {
		return fail(fmt.Errorf("sharded merge yielded %d records, want 7", merged))
	}

	// Case 5: two shards claiming the same LSN is corruption — the
	// global allocator hands each number to exactly one shard.
	dup := filepath.Join(root, "dup")
	if err := buildShard(dup, 0, 1, 3); err != nil {
		return fail(err)
	}
	if err := buildShard(dup, 1, 2, 3); err != nil {
		return fail(err)
	}
	if _, err := wal.MergeShards(dup, 0, 0, nil); !errors.Is(err, wal.ErrCorrupt) {
		return fail(fmt.Errorf("duplicate cross-shard LSN merged as %v, want ErrCorrupt", err))
	}

	// Case 6: a torn tail in one shard is isolated — the sibling's
	// records still merge and verify still passes.
	if err := appendGarbage(filepath.Join(sharded, wal.ShardDirName(1)), []byte{0x55, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		return fail(err)
	}

	// Case 7: the replica checker. A replica holding a byte-identical
	// prefix passes; a diverged payload, and a replica ahead of its
	// primary, both fail.
	pri := filepath.Join(root, "pri")
	if err := buildShard(pri, 0, 1, 3, 5); err != nil {
		return fail(err)
	}
	if err := buildShard(pri, 1, 2, 4); err != nil {
		return fail(err)
	}
	goodRep := filepath.Join(root, "rep-good")
	if err := buildShard(goodRep, 0, 1, 3); err != nil {
		return fail(err)
	}
	if err := buildShard(goodRep, 1, 2); err != nil {
		return fail(err)
	}
	if code := inspectReplica(goodRep, pri, io.Discard, io.Discard); code != 0 {
		return fail(fmt.Errorf("prefix replica verified as %d, want 0", code))
	}
	divergedRep := filepath.Join(root, "rep-diverged")
	dlog, err := wal.Open(filepath.Join(divergedRep, wal.ShardDirName(0)),
		wal.Options{SegmentSize: 256})
	if err != nil {
		return fail(err)
	}
	// Valid frame, same LSN as the primary's first record, different
	// bytes: a replica that would replay a different history.
	if err := dlog.AppendLSN(1, []byte(`{"op":"selfcheck","lsn":1,"diverged":true}`)); err != nil {
		dlog.Close()
		return fail(err)
	}
	if err := dlog.Close(); err != nil {
		return fail(err)
	}
	if code := inspectReplica(divergedRep, pri, io.Discard, io.Discard); code != 1 {
		return fail(fmt.Errorf("diverged replica verified as %d, want 1", code))
	}
	if code := inspectReplica(pri, goodRep, io.Discard, io.Discard); code != 1 {
		return fail(fmt.Errorf("replica ahead of primary verified as %d, want 1", code))
	}

	// The verify command itself must classify the corpus the same way:
	// exit 0 on the clean log and torn tails (single-dir or one shard of
	// many), 1 on corruption. The reopen above truncated the torn tail,
	// so tear it again first.
	if err := appendGarbage(torn, []byte{0x55, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		return fail(err)
	}
	for _, tc := range []struct {
		name string
		dir  string
		want int
	}{
		{"clean", clean, 0},
		{"torn", torn, 0},
		{"corrupt", corrupt, 1},
		{"sharded-torn", sharded, 0},
		{"sharded-dup", dup, 1},
	} {
		if code := inspect("verify", tc.dir, io.Discard, io.Discard); code != tc.want {
			return fail(fmt.Errorf("verify of %s log exited %d, want %d", tc.name, code, tc.want))
		}
	}

	fmt.Fprintln(stdout, "selfcheck ok: clean, torn-tail, corrupt, sharded and primary/replica logs all classified correctly")
	return 0
}

// appendGarbage writes raw bytes to the end of the last segment.
func appendGarbage(dir string, garbage []byte) error {
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) == 0 {
		return fmt.Errorf("no segments in %s: %v", dir, err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write(garbage)
	return err
}

// flipFirstSegmentByte corrupts a payload byte in the first segment.
func flipFirstSegmentByte(dir string) error {
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) == 0 {
		return fmt.Errorf("no segments in %s: %v", dir, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		return err
	}
	if len(data) < 20 {
		return fmt.Errorf("segment %s too short to corrupt", segs[0])
	}
	data[18] ^= 0xFF
	return os.WriteFile(segs[0], data, 0o644)
}
