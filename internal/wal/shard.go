package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Sharded layout: a root directory holding one log per store shard in
// subdirectories named shard-NNN. Every record carries a globally
// allocated LSN, so each shard log is a strictly increasing subsequence
// of one global stream; recovery merges the shard tails back into that
// stream by LSN.
const shardDirPrefix = "shard-"

// ShardDirName names the subdirectory of shard i under a sharded WAL
// root.
func ShardDirName(i int) string {
	return fmt.Sprintf("%s%03d", shardDirPrefix, i)
}

// parseShardDir extracts the shard index from a shard subdirectory
// name, reporting whether the name is one.
func parseShardDir(name string) (int, bool) {
	rest, ok := strings.CutPrefix(name, shardDirPrefix)
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// ShardDir locates one shard's log directory under a sharded root.
type ShardDir struct {
	// Index is the shard number parsed from the directory name.
	Index int
	// Path is the shard's log directory.
	Path string
}

// ListShardDirs enumerates the shard-NNN subdirectories of root in
// shard order. A missing root is an empty listing, not an error.
func ListShardDirs(root string) ([]ShardDir, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: list shards: %w", err)
	}
	var dirs []ShardDir
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		idx, ok := parseShardDir(e.Name())
		if !ok {
			continue
		}
		dirs = append(dirs, ShardDir{Index: idx, Path: filepath.Join(root, e.Name())})
	}
	sort.Slice(dirs, func(i, j int) bool { return dirs[i].Index < dirs[j].Index })
	return dirs, nil
}

// ShardReport pairs one shard's scan result with its identity.
type ShardReport struct {
	// Shard is the shard index.
	Shard int
	// Dir is the shard's log directory.
	Dir string
	// Report is the shard's scan.
	Report ScanReport
}

// Watermark is the shard's last valid LSN (0 when empty): the point up
// to which this shard's slice of the global stream is durable.
func (r ShardReport) Watermark() uint64 { return r.Report.LastLSN }

// mergedRecord is one record tagged with its owning shard.
type mergedRecord struct {
	shard   int
	lsn     uint64
	payload []byte
}

// MergeShards scans every shard-NNN subdirectory of root and streams the
// union of their records, in global LSN order, through fn. Gaps in the merged sequence are legal — a gap is
// a record that was never acknowledged (its append did not survive a
// crash on its shard), so nothing observable is missing. A duplicate
// LSN across shards is ErrCorrupt: the global allocator hands each
// number to exactly one shard, so two claimants mean a corrupt or
// misplaced log. A torn tail in one shard is reported for that shard
// alone and does not impugn its siblings. The per-shard reports are
// returned in shard order.
func MergeShards(root string, maxRecord int, from uint64, fn func(shard int, lsn uint64, payload []byte) error) ([]ShardReport, error) {
	dirs, err := ListShardDirs(root)
	if err != nil {
		return nil, err
	}
	var reports []ShardReport
	var records []mergedRecord
	for _, d := range dirs {
		report, err := Scan(d.Path, maxRecord, func(lsn uint64, payload []byte) error {
			if lsn < from {
				return nil
			}
			records = append(records, mergedRecord{
				shard:   d.Index,
				lsn:     lsn,
				payload: append([]byte(nil), payload...),
			})
			return nil
		})
		if err != nil {
			return reports, fmt.Errorf("shard %d: %w", d.Index, err)
		}
		reports = append(reports, ShardReport{Shard: d.Index, Dir: d.Path, Report: report})
	}
	// Each shard contributed an already-sorted run; a stable sort by
	// LSN interleaves them into the global order.
	sort.SliceStable(records, func(i, j int) bool { return records[i].lsn < records[j].lsn })
	for i, rec := range records {
		if i > 0 && rec.lsn == records[i-1].lsn {
			return reports, fmt.Errorf("%w: LSN %d claimed by shard %d and shard %d",
				ErrCorrupt, rec.lsn, records[i-1].shard, rec.shard)
		}
		if fn != nil {
			if err := fn(rec.shard, rec.lsn, rec.payload); err != nil {
				return reports, err
			}
		}
	}
	return reports, nil
}

// IsShardedDir reports whether dir uses the sharded per-shard layout
// (it contains at least one shard-NNN subdirectory).
func IsShardedDir(dir string) bool {
	dirs, err := ListShardDirs(dir)
	return err == nil && len(dirs) > 0
}
