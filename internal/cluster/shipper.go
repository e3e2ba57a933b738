package cluster

import (
	"cmp"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/iotbind/iotbind/internal/cloud"
	"github.com/iotbind/iotbind/internal/wal"
)

// feedCapBytes bounds the payload bytes the feed retains between drains.
// Under ack-after-replicate the feed never holds more than the records of
// the requests in flight; the cap exists for async mode, where nothing
// may call Drain for a long time and the heap must not grow with the
// backlog. Past the cap the feed forgets what it held and the next drain
// re-reads the backlog from the primary's segment files — the log on
// disk is the source of truth, the feed a cache of its tail. Two arenas
// rotate between the feed and the drain and each keeps the capacity of the
// largest backlog it held, so what the shipper pins is at most twice this
// (plus append's slack), whatever the backlog.
const feedCapBytes = 4 << 20

// Shipper moves a primary's WAL to its replica. In steady state the
// source is memory: the primary's append observer (Offer) hands every
// record to the feed the moment it lands in a shard log, and Drain
// delivers what was offered to the replica's ShipRecord in LSN order —
// the same watermark-merge recovery performs offline, run continuously,
// without re-reading from the filesystem what this process just wrote.
// The segment files are read in the two cases only they can serve: once
// at newShipper, when the replica may be behind the primary's files, and
// after the feed overflowed its cap.
//
// Delivery is tracked per shard, never as one global high-water LSN.
// Shards append independently, so a record can be offered before a
// lower-LSN record still in flight on a sibling shard; a global max
// would then claim the lower record was shipped when it never was. Each
// shard's records are offered, delivered and appended on the replica in
// increasing LSN order, so marks[i] is exactly what shard i's replica
// log holds — where a re-seed resumes and what Kill scans above.
//
// Lock order. On the primary's side: primary d.mu → WAL-shard mutex →
// feed.mu. On the shipper's side: Shipper.mu → feed.mu (released before
// anything is shipped) → replica d.mu, and Shipper.mu → primary d.mu
// (read side) → WAL-shard mutex for a re-seed's FlushWAL. feed.mu is a
// leaf: nothing is acquired under it. Offer runs under the primary's
// shard mutex — on the cold lane under d.mu held exclusively — so it
// must never take Shipper.mu or call FlushWAL, which would close the
// cycle against a drain that holds Shipper.mu and waits for d.mu.
//
// A record is offered before the primary's ack watermark advances and
// before the primary applies it, so a concurrent request's drain can put
// the replica one record ahead of the primary's own apply. Nothing
// observes that: Kill takes the node's write lock, which every request
// holds for its full duration, so the primary has applied everything the
// replica holds by the time anyone compares them.
//
// Safe for concurrent use; drains serialize.
type Shipper struct {
	primaryDir string
	maxRecord  int
	flush      func() error                                      // primary.FlushWAL: makes buffered frames readable before a seed
	ship       func(shard int, lsn uint64, payload []byte) error // dst.ShipRecord (swapped by failure-injection tests)

	feed feed
	// settled is feed.offered as read by the last drain that left nothing
	// pending: equal counters mean every record offered so far is on the
	// replica, which is the whole ack check when nothing is outstanding.
	settled atomic.Uint64

	mu       sync.Mutex
	detached bool
	reseed   bool      // pending must be rebuilt from the segment files
	marks    []uint64  // per-shard highest LSN delivered to dst
	shipped  uint64    // highest LSN delivered to dst across all shards
	pending  []shipRec // taken off the feed or the files, not yet accepted by dst
	arena    []byte    // the last take's arena, which the next take hands back to the feed
}

// shipRec is one record in transit to the replica.
type shipRec struct {
	shard   int
	lsn     uint64
	payload []byte
	// inArena: payload lies in the arena the drain took from the feed,
	// which the next take gives back to be overwritten.
	inArena bool
}

// feed is the queue between the primary's append path and the shipper.
// The payloads it holds lie back to back in one arena, so offering a
// record allocates nothing once the arena and the queue have grown to a
// drain's worth. A take swaps the arena for the one the previous drain
// is done with.
type feed struct {
	mu         sync.Mutex // leaf
	queue      []shipRec
	arena      []byte // the queue's payloads, at most feedCapBytes
	overflowed bool   // records were dropped since the last take
	// offered counts every record handed to Offer, retained or dropped.
	// Advanced under mu, so take reads it consistently with the queue;
	// atomic so the ack check reads it without the lock.
	offered atomic.Uint64
}

// take moves the queue onto the end of pending, swaps the arena those
// records lie in for spent — an arena no record refers to any more — and
// reports the offered count that the moved records (plus any dropped
// ones) add up to.
func (f *feed) take(pending []shipRec, spent []byte) (_ []shipRec, arena []byte, offered uint64, overflowed bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	pending = append(pending, f.queue...)
	clear(f.queue)
	f.queue = f.queue[:0]
	arena, f.arena = f.arena, spent[:0]
	overflowed, f.overflowed = f.overflowed, false
	return pending, arena, f.offered.Load(), overflowed
}

// newShipper ships the primary's sharded WAL under primaryDir (the
// durable directory, not the wal/ subdirectory) into dst. It first
// closes whatever gap the files show — each shard resumes at dst's own
// watermark for that shard, because the replica's logs record exactly
// what it holds per shard — and returns once dst holds every record the
// files do. The caller then installs Offer as the primary's append
// observer, before the primary serves traffic, so the feed continues
// where the files ended with no gap. flush is the primary's FlushWAL.
func newShipper(primaryDir string, maxRecord int, dst *cloud.Durable, flush func() error) (*Shipper, error) {
	s := &Shipper{
		primaryDir: primaryDir,
		maxRecord:  maxRecord,
		flush:      flush,
		ship:       dst.ShipRecord,
		reseed:     true,
		marks:      dst.ShardWatermarks(),
	}
	s.shipped = slices.Max(s.marks)
	if err := s.drainLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// Offer is the primary's append observer (cloud.Durable.SetAppendObserver):
// it copies the pooled payload once, onto the end of the feed's arena,
// and queues the record, or, past the cap, drops the queue and the arena
// and leaves the backlog to a re-seed.
func (s *Shipper) Offer(shard int, lsn uint64, payload []byte) {
	f := &s.feed
	f.mu.Lock()
	defer f.mu.Unlock()
	f.offered.Add(1)
	if f.overflowed {
		return
	}
	at := len(f.arena)
	if at+len(payload) > feedCapBytes {
		f.queue, f.arena, f.overflowed = nil, nil, true
		return
	}
	// A record queued before the arena last grew keeps the array it was
	// copied into; the cap keeps a consumer from appending into its
	// neighbour.
	f.arena = append(f.arena, payload...)
	f.queue = append(f.queue, shipRec{shard: shard, lsn: lsn, payload: f.arena[at:len(f.arena):len(f.arena)], inArena: true})
}

// Drain delivers every record offered so far and returns once the
// replica holds them all. That is what makes ack-after-replicate exact:
// a request's own record was offered before the request got here, so it
// is either already delivered — by this drain or a concurrent one — or
// the drain fails and the request with it. When nothing is outstanding
// the check is two atomic loads and takes no lock. After a failed
// delivery the undelivered records stay pending and the next Drain
// retries them.
func (s *Shipper) Drain() error {
	if s.feed.offered.Load() == s.settled.Load() {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drainLocked()
}

func (s *Shipper) drainLocked() error {
	// The arena of the previous take goes back to the feed. Whatever that
	// drain failed to deliver and left pending moves out of it first, so
	// the pending buffer stays the only copy that outlives a failure.
	for i := range s.pending {
		if r := &s.pending[i]; r.inArena {
			r.payload, r.inArena = append([]byte(nil), r.payload...), false
		}
	}
	var offered uint64
	var overflowed bool
	s.pending, s.arena, offered, overflowed = s.feed.take(s.pending, s.arena)
	s.reseed = s.reseed || overflowed
	if s.detached && (len(s.pending) > 0 || s.reseed) {
		// The primary's disk is gone: whatever was shipped is all there
		// will ever be, and it does not cover what was offered.
		return fmt.Errorf("cluster: shipper detached at LSN %d with offered records undelivered", s.shipped)
	}
	seeded := s.reseed
	if seeded {
		if err := s.seed(); err != nil {
			return err
		}
	}
	if err := s.deliver(); err != nil {
		return err
	}
	if seeded {
		s.pending = nil // sized by the backlog on disk, not by the feed's cap
	}
	s.settled.Store(offered)
	return nil
}

// seed rebuilds pending from the primary's segment files, reading each
// shard above its delivered mark. Everything pending held is in those
// files too — a record is offered only after its append — so pending is
// replaced, not merged. Records offered while the seed runs land in the
// feed as well as in this read; ShipRecord skips the second copy as a
// redelivery. On error the shipper still needs a seed and says so on the
// next drain.
func (s *Shipper) seed() error {
	if err := s.flush(); err != nil {
		return fmt.Errorf("cluster: ship flush: %w", err)
	}
	s.pending = nil
	for shard, mark := range s.marks {
		dir := filepath.Join(s.primaryDir, "wal", wal.ShardDirName(shard))
		if _, err := wal.NewTailer(dir, s.maxRecord, mark).Poll(func(lsn uint64, payload []byte) error {
			s.pending = append(s.pending, shipRec{shard: shard, lsn: lsn, payload: append([]byte(nil), payload...)})
			return nil
		}); err != nil {
			return fmt.Errorf("cluster: tail shard %d: %w", shard, err)
		}
	}
	s.reseed = false
	return nil
}

// deliver ships pending in LSN order. A record leaves pending only once
// the replica accepted it: the feed has already forgotten it, so after a
// transient failure the pending buffer holds the only in-memory copy.
func (s *Shipper) deliver() error {
	if len(s.pending) > 1 {
		slices.SortFunc(s.pending, func(a, b shipRec) int { return cmp.Compare(a.lsn, b.lsn) })
	}
	for i, r := range s.pending {
		if err := s.ship(r.shard, r.lsn, r.payload); err != nil {
			n := copy(s.pending, s.pending[i:])
			clear(s.pending[n:])
			s.pending = s.pending[:n]
			return fmt.Errorf("cluster: ship record %d: %w", r.lsn, err)
		}
		if r.lsn > s.marks[r.shard] {
			s.marks[r.shard] = r.lsn
		}
		if r.lsn > s.shipped {
			s.shipped = r.lsn
		}
	}
	clear(s.pending)
	s.pending = s.pending[:0]
	return nil
}

// Detach stops the shipper permanently — the primary's disk is gone.
// Concurrent drains finish first; later ones succeed only if everything
// offered was already delivered.
func (s *Shipper) Detach() {
	s.mu.Lock()
	s.detached = true
	s.mu.Unlock()
}

// Watermark reports the highest LSN shipped to the replica. A max
// across shards, so it may briefly run ahead of lower-LSN records
// still in flight on other shards — coverage questions go through
// ShardMarks.
func (s *Shipper) Watermark() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shipped
}

// ShardMarks returns a copy of the per-shard shipped watermark vector.
func (s *Shipper) ShardMarks() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]uint64(nil), s.marks...)
}
