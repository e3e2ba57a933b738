package cloud

import (
	"errors"
	"fmt"
)

// errNotPrimary is returned by mutating handlers on a follower Durable.
// It deliberately carries no protocol wire code: the retry layer treats
// it as transient, which is exactly right during a failover window —
// the request succeeds once the router swaps in the promoted replica.
var errNotPrimary = errors.New("cloud: node is a replica (not primary)")

// ShipRecord applies one WAL record shipped from the primary: append it
// to the follower's own shard log at the original LSN (so the replica's
// per-shard logs are byte prefixes of the primary's and survive a
// restart of their own), then replay it through the same persisted
// clock/DRBG envelope recovery uses — the replica's state is the
// primary's state because both are pure functions of the record stream.
//
// Each shard's records must arrive in increasing LSN order, shard-
// tagged exactly as the primary wrote them; a record at or below its
// own shard's watermark is a redelivery and is skipped. The redelivery
// check is deliberately per shard, never a global watermark: the
// primary's shards append (and offer their records to the shipper)
// independently, so a higher LSN on one shard may legally arrive before
// a lower LSN still in flight on another, and a global watermark would
// discard that straggler as a duplicate — silently and permanently. It
// is also what absorbs the overlap between a shipper's re-read of the
// segment files and the records its in-memory feed took meanwhile.
// Cross-shard arrival order is therefore only best-effort, which is
// sound because the only records that can overtake each other are the
// hot lane's, and those commute (a cold-lane record appends only after
// every lower LSN completed).
// payload is only read during the call — the shard log and the apply
// copy what they keep — so the shipper may hand in a slice of a buffer
// it reuses. Only legal on a follower.
func (d *Durable) ShipRecord(shard int, lsn uint64, payload []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errDurableClosed
	}
	if !d.follower {
		return fmt.Errorf("cloud: ShipRecord on a primary")
	}
	if shard < 0 || shard >= len(d.shards) {
		return fmt.Errorf("cloud: ShipRecord: shard %d outside the %d-shard layout", shard, len(d.shards))
	}
	ws := d.shards[shard]
	ws.mu.Lock()
	log, err := d.shardLogLocked(ws)
	if err == nil {
		if lsn <= log.LastLSN() {
			ws.mu.Unlock()
			return nil
		}
		err = log.AppendLSN(lsn, payload)
	}
	ws.mu.Unlock()
	if err != nil {
		return fmt.Errorf("cloud: ship record %d: %w", lsn, err)
	}
	// Log-before-apply, exactly like the primary: the watermarks advance
	// once the record is held durably, whether or not the apply below
	// reports a decode fault (a fault there is terminal for shipping
	// anyway — the streams have diverged). Both are maxes — the floor a
	// promotion allocates LSNs above — not coverage: per-shard coverage
	// lives in the shard logs themselves (ShardWatermarks).
	if cur := d.nextLSN.Load(); lsn > cur {
		d.nextLSN.Store(lsn)
	}
	if cur := d.lastAcked.Load(); lsn > cur {
		d.lastAcked.Store(lsn)
	}
	return d.applyRecord(lsn, payload)
}

// Promote turns a follower into a primary: mutating handlers start
// accepting traffic, allocating LSNs above everything shipped so far.
// The caller must have detached the old primary's shipper first —
// records shipped after promotion are rejected like any other
// ShipRecord on a primary.
func (d *Durable) Promote() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errDurableClosed
	}
	d.follower = false
	return nil
}

// IsFollower reports whether the node is still in replica mode.
func (d *Durable) IsFollower() bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.follower
}

// SetAppendObserver installs fn as the primary's append observer: every
// record that lands in a shard log — hot lane, cold lane, liveness
// flushes — is handed to fn right after its AppendLSN succeeded (so under
// SyncEveryRecord after its fsync), before the ack watermark advances and
// before the operation applies (a liveness flush describes heartbeats
// already applied, and precedes the logged operation that needed it). It
// is the in-process source of WAL shipping; the segment files stay the
// source of truth for anything the observer's owner drops.
//
// fn runs under the shard's mutex and under d.mu (held exclusively on the
// cold lane), so it may take only leaf locks and must not call back into
// the Durable — FlushWAL, ShardWatermarks and every handler take those
// same locks. payload is a pooled encode buffer, valid only during the
// call: fn copies what it keeps. Install before the Durable serves
// traffic; records appended earlier are only in the files.
func (d *Durable) SetAppendObserver(fn func(shard int, lsn uint64, payload []byte)) {
	d.mu.Lock()
	d.observe = fn
	d.mu.Unlock()
}

// FlushWAL pushes every shard log's buffered frames into the segment
// files so a Tailer (the shipper's attach and re-seed reader, Kill's
// stranded-record scan) sees all acked records. Under SyncEveryRecord
// this is a no-op — commit already flushed — but the buffered policies
// may hold acked frames in memory indefinitely on a quiet shard.
// Durability is not forced; this is visibility, not fsync.
func (d *Durable) FlushWAL() error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return errDurableClosed
	}
	for _, ws := range d.shards {
		ws.mu.Lock()
		log := ws.log
		ws.mu.Unlock()
		if log == nil {
			continue
		}
		if err := log.Flush(); err != nil {
			return fmt.Errorf("cloud: flush WAL: %w", err)
		}
	}
	return nil
}
