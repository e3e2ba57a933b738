package cloud

import (
	"runtime"
	"sort"
	"sync"
)

// shardCount picks the store's shard count: the smallest power of two at
// least 4x GOMAXPROCS (so concurrent handlers rarely collide on a shard
// even under adversarial device-ID distributions), clamped to [8, 512].
// A power of two lets shard selection mask instead of mod.
func shardCount() int {
	n := 4 * runtime.GOMAXPROCS(0)
	count := 8
	for count < n && count < 512 {
		count <<= 1
	}
	return count
}

// shadowStore is the sharded device-shadow map. Each shard guards its own
// map with an RWMutex; each shadow carries its own mutex for per-device
// state. The lock ordering is strict and one-way:
//
//	shard.mu -> shadow.mu, never back
//
// A shard lock is held only to look up or insert the *pointer* — never
// while a shadow's fields are touched — and no code path ever holds two
// shadow locks or re-enters a shard while holding a shadow lock. Status
// heartbeats, binds and control relays on different devices therefore
// never contend; operations on the same device serialize on that
// device's shadow lock, preserving the exact per-device semantics of the
// old global mutex.
type shadowStore struct {
	shards []shadowShard
	mask   uint32
}

type shadowShard struct {
	mu sync.RWMutex
	// shadows is nil until the first insert (put, under mu's write
	// lock): a nil map reads as empty, so lookups need no check, and a
	// cloud that serves one device does not pay for 4 × GOMAXPROCS maps.
	shadows map[string]*shadow
	// pad spaces shards across cache lines so neighbouring shard locks
	// don't false-share under cross-core traffic.
	_ [40]byte
}

func newShadowStore() *shadowStore {
	n := shardCount()
	return &shadowStore{shards: make([]shadowShard, n), mask: uint32(n - 1)}
}

// put creates and stores the shadow for deviceID. The caller holds
// sd.mu's write lock and has found no shadow under it.
func (sd *shadowShard) put(deviceID string) *shadow {
	if sd.shadows == nil {
		sd.shadows = make(map[string]*shadow)
	}
	sh := newShadow(deviceID)
	sd.shadows[deviceID] = sh
	return sh
}

// fnv1a is the 32-bit FNV-1a hash used for shard selection.
func fnv1a(s string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return h
}

func (st *shadowStore) shard(deviceID string) *shadowShard {
	return &st.shards[fnv1a(deviceID)&st.mask]
}

// shardIndex returns the shard index a device ID maps to; the batch path
// uses it to group a batch's devices before locking.
func (st *shadowStore) shardIndex(deviceID string) uint32 {
	return fnv1a(deviceID) & st.mask
}

// getMany returns the shadows for ids, which must all map to the shard at
// index idx. The shard lock is taken once for the whole group — one read
// round, plus at most one write round creating any missing shadows —
// instead of once per device, which is the batch path's lock
// amortization.
func (st *shadowStore) getMany(idx uint32, ids []string) []*shadow {
	sd := &st.shards[idx]
	out := make([]*shadow, len(ids))
	missing := false
	sd.mu.RLock()
	for i, id := range ids {
		if sh, ok := sd.shadows[id]; ok {
			out[i] = sh
		} else {
			missing = true
		}
	}
	sd.mu.RUnlock()
	if !missing {
		return out
	}
	sd.mu.Lock()
	defer sd.mu.Unlock()
	for i, id := range ids {
		if out[i] != nil {
			continue
		}
		// Double-check: a concurrent batch or single-status handler may
		// have created the shadow between the read and write rounds.
		if sh, ok := sd.shadows[id]; ok {
			out[i] = sh
			continue
		}
		out[i] = sd.put(id)
	}
	return out
}

// get returns the shadow for deviceID, creating it on first sight. The
// fast path is a read-locked lookup; creation double-checks under the
// write lock.
func (st *shadowStore) get(deviceID string) *shadow {
	sd := st.shard(deviceID)
	sd.mu.RLock()
	sh, ok := sd.shadows[deviceID]
	sd.mu.RUnlock()
	if ok {
		return sh
	}
	sd.mu.Lock()
	defer sd.mu.Unlock()
	if sh, ok = sd.shadows[deviceID]; ok {
		return sh
	}
	return sd.put(deviceID)
}

// peek returns the shadow for deviceID without creating one.
func (st *shadowStore) peek(deviceID string) (*shadow, bool) {
	sd := st.shard(deviceID)
	sd.mu.RLock()
	defer sd.mu.RUnlock()
	sh, ok := sd.shadows[deviceID]
	return sh, ok
}

// ids returns every stored device ID, sorted.
func (st *shadowStore) ids() []string {
	var out []string
	for i := range st.shards {
		sd := &st.shards[i]
		sd.mu.RLock()
		for id := range sd.shadows {
			out = append(out, id)
		}
		sd.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// replaceAll swaps in a full shadow set (snapshot restore). Callers must
// not race device traffic: in-flight handlers that already fetched a
// shadow pointer keep mutating the retired shadow.
func (st *shadowStore) replaceAll(shadows map[string]*shadow) {
	fresh := make([]map[string]*shadow, len(st.shards))
	for i := range fresh {
		fresh[i] = make(map[string]*shadow)
	}
	for id, sh := range shadows {
		fresh[fnv1a(id)&st.mask][id] = sh
	}
	for i := range st.shards {
		sd := &st.shards[i]
		sd.mu.Lock()
		sd.shadows = fresh[i]
		sd.mu.Unlock()
	}
}
