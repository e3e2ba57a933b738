package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/iotbind/iotbind/internal/delegation"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/token"
	"github.com/iotbind/iotbind/internal/wal"
	"github.com/iotbind/iotbind/internal/wirecodec"
)

// Direct calls into the layers' public functions, for the costs no
// request-level span can resolve. Each number is the median over
// directBatches batches, each batch calling for one slot of time.
const (
	directBatches = 5
	directShare   = 0.004 // of the run's duration, per batch
)

// perCall times directBatches batches of calls to f, slot long each, and
// returns the median cost of one call and the number of calls made.
func perCall(slot time.Duration, f func()) (cost time.Duration, calls int) {
	costs := make([]float64, directBatches)
	for b := range costs {
		n, t := 0, time.Now()
		var spent time.Duration
		for spent < slot {
			for i := 0; i < 16; i++ {
				f()
			}
			n += 16
			spent = time.Since(t)
		}
		costs[b] = float64(spent) / float64(n)
		calls += n
	}
	return time.Duration(median(costs)), calls
}

// keyedStatus is the real keyed_status request: what the wire carries
// and the WAL logs.
func keyedStatus() protocol.StatusRequest {
	return protocol.StatusRequest{
		Kind: protocol.StatusHeartbeat, DeviceID: "AA:BB:CC:00:00:01", SourceIP: sourceIP,
		IdempotencyKey: "run-1-0-123456",
		Readings:       []protocol.Reading{{Name: "power_w", Value: 42.5, At: epoch}},
	}
}

// sink keeps the compiler from discarding a measured call's result.
var sink any

// directLayers measures the codec, WAL, token and delegation layers by
// calling them, slot per batch, and reports into r.
func directLayers(scratch string, slot time.Duration, r *runResult) error {
	req := keyedStatus()
	ns := func(f func()) float64 {
		cost, _ := perCall(slot, f)
		return float64(cost)
	}

	var body, record bytes.Buffer
	r.set("wirecodec.status_encode_ns", ns(func() {
		body.Reset()
		wirecodec.PutStatusBody(&body, &req)
	}))
	r.set("wirecodec.status_decode_ns", ns(func() {
		sink = wirecodec.ReadStatusBody(wirecodec.NewCursor(body.Bytes(), 0))
	}))
	r.set("wirecodec.record_encode_ns", ns(func() {
		record.Reset()
		wirecodec.EncodeStatusRecord(&record, epoch, &req)
	}))
	var decodeErr error
	r.set("wirecodec.record_decode_ns", ns(func() {
		sink, decodeErr = wirecodec.DecodeRecord(record.Bytes())
	}))
	if decodeErr != nil {
		return fmt.Errorf("decode status record: %w", decodeErr)
	}

	if err := directWAL(scratch, slot, record.Bytes(), r); err != nil {
		return err
	}

	// A populated issuer, resolving one user token.
	iss := token.NewIssuer(token.WithClock(frozenNow))
	var tok token.Token
	for i := 0; i < 1024; i++ {
		var err error
		if tok, err = iss.Issue(token.KindUser, "", fmt.Sprintf("user-%d", i), time.Hour); err != nil {
			return err
		}
	}
	var resolveErr error
	r.set("token.resolve_ns", ns(func() {
		sink, resolveErr = iss.Resolve(tok.Value, epoch)
	}))
	if resolveErr != nil {
		return fmt.Errorf("resolve token: %w", resolveErr)
	}

	// A depth-2 chain: owner → a (may share) → b. Authorizing b walks it.
	lat := delegation.New(ownerID)
	for _, g := range []delegation.Grant{
		{Grantor: ownerID, Grantee: "a", Scopes: delegation.ScopeControl | delegation.ScopeRead | delegation.ScopeShare, Expiry: epoch.Add(time.Hour), Depth: 2},
		{Grantor: "a", Grantee: "b", Scopes: delegation.ScopeControl, Expiry: epoch.Add(time.Hour), Depth: 1},
	} {
		if _, err := lat.Grant(g, epoch, true); err != nil {
			return fmt.Errorf("grant %s→%s: %w", g.Grantor, g.Grantee, err)
		}
	}
	authorized := true
	r.set("delegation.authorize_ns", ns(func() {
		authorized = authorized && lat.Authorize("b", delegation.ScopeControl, epoch)
	}))
	if !authorized {
		return fmt.Errorf("delegation: depth-2 grantee not authorized")
	}
	return nil
}

// directWAL appends the real status record under SyncOff and under
// SyncEveryRecord (the fsync-durable price the stack under test does
// not pay, reported only), and tails one fresh record at a time.
func directWAL(scratch string, slot time.Duration, record []byte, r *runResult) error {
	dir, err := os.MkdirTemp(scratch, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// appendCost returns the cost of one append, the appends made and the
	// log they went to.
	appendCost := func(sub string, policy wal.SyncPolicy) (time.Duration, int, *wal.Log, error) {
		log, err := wal.Open(filepath.Join(dir, sub), wal.Options{Policy: policy})
		if err != nil {
			return 0, 0, nil, err
		}
		var appendErr error
		cost, appends := perCall(slot, func() {
			if _, err := log.Append(record); err != nil {
				appendErr = err
			}
		})
		if appendErr != nil {
			log.Close()
			return 0, 0, nil, appendErr
		}
		return cost, appends, log, nil
	}

	cost, appends, log, err := appendCost("off", wal.SyncOff)
	if err != nil {
		return fmt.Errorf("wal append (SyncOff): %w", err)
	}
	defer log.Close()
	r.set("wal.append_us", cost.Seconds()*1e6)
	if err := log.Flush(); err != nil {
		return err
	}
	var segBytes int64
	for _, seg := range log.Segments() {
		fi, err := os.Stat(seg)
		if err != nil {
			return err
		}
		segBytes += fi.Size()
	}
	r.set("wal.bytes_per_record", float64(segBytes)/float64(appends))

	// One fresh record per poll: what the shipper does before each ack.
	// Only the Poll is timed.
	tailer := wal.NewTailer(log.Dir(), 0, log.LastLSN())
	var inPoll time.Duration
	polls := 0
	for start := time.Now(); time.Since(start) < directBatches*slot; polls++ {
		if _, err := log.Append(record); err != nil {
			return fmt.Errorf("wal tail: %w", err)
		}
		if err := log.Flush(); err != nil {
			return fmt.Errorf("wal tail: %w", err)
		}
		t := time.Now()
		n, err := tailer.Poll(func(uint64, []byte) error { return nil })
		inPoll += time.Since(t)
		if err != nil || n != 1 {
			return fmt.Errorf("wal tail: polled %d records: %v", n, err)
		}
	}
	r.set("wal.tailer_poll_us", inPoll.Seconds()*1e6/float64(polls))

	cost, _, syncLog, err := appendCost("sync", wal.SyncEveryRecord)
	if err != nil {
		return fmt.Errorf("wal append (SyncEveryRecord): %w", err)
	}
	r.set("wal.append_sync_us", cost.Seconds()*1e6)
	return syncLog.Close()
}
