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
}

// Capture copies the service's state into c, replacing what c held.
// Callers must not race traffic.
func (s *Service) Capture(c *Checkpoint) {
	c.design = s.design
	c.devices = s.registry.appendTo(c.devices[:0])
	c.accounts = s.accounts.appendTo(c.accounts[:0])
	c.tokens = s.issuer.AppendTo(c.tokens[:0])
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
// writes nothing c holds. Callers must not race traffic.
func (s *Service) Rewind(c *Checkpoint) {
	s.design = c.design
	s.registry.replace(c.devices)
	_ = s.issuer.Import(c.tokens) // issued tokens, so none is empty
	s.accounts.put(c.accounts)
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
