package cloud

import (
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/token"
)

// Checkpoint is a by-value copy of a Service's whole state: the design,
// the registry, the accounts, the live tokens, the counters and every
// shadow, each with its Figure 2 machine and trace ring. A rig that runs
// many experiments from one world captures it once and rewinds to it
// before each (testbed). Unlike Snapshot it keeps the traces and the
// registry, has no persisted form and is never validated: it is only
// ever rewound into the service it was captured from. Capture and Rewind
// reuse the memory of earlier calls, so once a checkpoint and the service
// have held a world as large, neither allocates. The zero value is empty.
//
// A rewind copies back only what changed since the checkpoint last
// matched the service. The registry, the account store and the token
// issuer each count their writes — every change to one moves its count,
// and no count goes back — and the checkpoint notes, per store, which
// store it read or last wrote and its count then; a store that is the
// same one at the same count still holds the checkpoint's copy, and
// Rewind skips it. A counter is stored only when its value differs. The
// shadows are copied whole.
type Checkpoint struct {
	design   core.DesignSpec
	devices  []DeviceRecord
	accounts []account
	tokens   []token.Token
	stats    Stats
	// shadows[:n] are the captured shadows; the rest are kept for a
	// later capture.
	shadows []*shadow
	n       int
	// The stores devices, accounts and tokens match, and at which of
	// their write counts.
	registry mark[Registry]
	account  mark[accountStore]
	issuer   mark[token.Issuer]
}

// mark names a store and one of its write counts: the checkpoint's copy
// of it is what it held at that count.
type mark[T any] struct {
	store  *T
	writes uint64
}

// holds reports whether store is m's store, still at m's count.
func (m mark[T]) holds(store *T, writes uint64) bool {
	return m.store == store && m.writes == writes
}

// Capture copies the service's state into c, replacing what c held.
// Callers must not race traffic.
func (s *Service) Capture(c *Checkpoint) {
	c.design = s.design
	c.devices = s.registry.appendTo(c.devices[:0])
	c.accounts = s.accounts.appendTo(c.accounts[:0])
	c.tokens = s.issuer.AppendTo(c.tokens[:0])
	c.registry = mark[Registry]{s.registry, s.registry.writes.Load()}
	c.account = mark[accountStore]{&s.accounts, s.accounts.writes.Load()}
	c.issuer = mark[token.Issuer]{s.issuer, s.issuer.Writes()}
	c.stats = s.stats.snapshot()
	c.n = 0
	for i := range s.store.shards {
		sd := &s.store.shards[i]
		sd.mu.RLock()
		for _, sh := range sd.shadows {
			if c.n == len(c.shadows) {
				c.shadows = append(c.shadows, new(shadow))
			}
			sh.mu.Lock()
			c.shadows[c.n].copyFrom(sh)
			sh.mu.Unlock()
			c.n++
		}
		sd.mu.RUnlock()
	}
}

// Rewind puts the service back into the state c captured from it,
// copying into the service's own maps and shadows: a later request
// writes nothing c holds. A store whose write count has not moved since
// c last matched it is not copied; one that is copied is noted in c at
// its new count. Callers must not race traffic.
func (s *Service) Rewind(c *Checkpoint) {
	s.design = c.design
	if !c.registry.holds(s.registry, s.registry.writes.Load()) {
		s.registry.replace(c.devices)
		c.registry = mark[Registry]{s.registry, s.registry.writes.Load()}
	}
	if !c.issuer.holds(s.issuer, s.issuer.Writes()) {
		_ = s.issuer.Import(c.tokens) // issued tokens, so none is empty
		c.issuer = mark[token.Issuer]{s.issuer, s.issuer.Writes()}
	}
	if !c.account.holds(&s.accounts, s.accounts.writes.Load()) {
		s.accounts.put(c.accounts)
		c.account = mark[accountStore]{&s.accounts, s.accounts.writes.Load()}
	}
	s.stats.restore(c.stats)
	s.rewindShadows(c.shadows[:c.n])
}

// rewindShadows makes the store hold exactly saved's shadows, each a copy
// (shadow.copyFrom) in a shadow the service held before: every shadow
// goes to its shard's spares, and each of saved's is copied into one
// taken back. A shard that holds no shadow is not touched: Rewind races no
// traffic, so it stays empty. With as many spares as saved has shadows in
// each shard it allocates nothing.
func (s *Service) rewindShadows(saved []*shadow) {
	for i := range s.store.shards {
		sd := &s.store.shards[i]
		if len(sd.shadows) == 0 {
			continue
		}
		sd.mu.Lock()
		for _, sh := range sd.shadows {
			sd.spare = append(sd.spare, sh)
		}
		clear(sd.shadows)
		sd.mu.Unlock()
	}
	for _, src := range saved {
		sd := s.store.shard(src.deviceID)
		sd.mu.Lock()
		sh := sd.takeSpare()
		if sh == nil {
			sh = new(shadow)
		}
		sh.copyFrom(src)
		sd.insert(src.deviceID, sh)
		sd.mu.Unlock()
	}
}
