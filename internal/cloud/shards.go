package cloud

import (
	"runtime"
	"sort"
	"sync"

	"github.com/iotbind/iotbind/internal/core"
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
	// spare holds shadows a Rewind took out of this shard, for put and a
	// later Rewind to reuse before they make one; under mu's write lock
	// like shadows, so the serving path takes no other lock.
	spare []*shadow
	// pad spaces shards across cache lines so neighbouring shard locks
	// don't false-share under cross-core traffic.
	_ [8]byte
}

func newShadowStore() shadowStore {
	n := shardCount()
	return shadowStore{shards: make([]shadowShard, n), mask: uint32(n - 1)}
}

// put creates and stores the shadow for deviceID: a spare made new in
// its own memory when the shard holds one. The caller holds sd.mu's write
// lock and has found no shadow under it.
func (sd *shadowShard) put(deviceID string) *shadow {
	sh := sd.takeSpare()
	if sh == nil {
		sh = newShadow(deviceID)
	} else {
		sh.copyFrom(&shadow{deviceID: deviceID, machine: *core.NewMachine()})
	}
	sd.insert(deviceID, sh)
	return sh
}

// takeSpare pops a spare shadow, nil when the shard has none. The caller
// holds sd.mu's write lock.
func (sd *shadowShard) takeSpare() *shadow {
	n := len(sd.spare)
	if n == 0 {
		return nil
	}
	sh := sd.spare[n-1]
	sd.spare = sd.spare[:n-1]
	return sh
}

// insert stores sh under deviceID, making the shard's map if this is its
// first shadow. The caller holds sd.mu's write lock.
func (sd *shadowShard) insert(deviceID string, sh *shadow) {
	if sd.shadows == nil {
		sd.shadows = make(map[string]*shadow)
	}
	sd.shadows[deviceID] = sh
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

// replaceAll swaps in a full shadow set (snapshot restore; nil empties the
// store). Every shard's map is emptied in place and only a shard that
// receives a shadow gets one made, so a restored store keeps the lazy rule
// put follows. Callers must not race device traffic: in-flight handlers
// that already fetched a shadow pointer keep mutating the retired shadow.
func (st *shadowStore) replaceAll(shadows map[string]*shadow) {
	for i := range st.shards {
		sd := &st.shards[i]
		sd.mu.Lock()
		clear(sd.shadows)
		sd.mu.Unlock()
	}
	for id, sh := range shadows {
		sd := st.shard(id)
		sd.mu.Lock()
		sd.insert(id, sh)
		sd.mu.Unlock()
	}
}
