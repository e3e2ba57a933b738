package cloud

import "encoding/binary"

// idemLog is a shadow's idempotency log: a ring of up to maxIdemResults
// records, the oldest evicted first. Each record's key is copied into
// keys, one arena in FIFO order holding each key as a uvarint length and
// its bytes, so the log keeps no request's string (an evicted key's
// bytes are dead until a compaction drops them). hashes[slot] is the
// hash of the key at slot, and a lookup scans them, densely: a hash only
// screens, and a lookup matches a key's bytes exactly, so a hash alone
// never replays.
type idemLog struct {
	ents   ring[idemEntry]
	hashes []uint32
	keys   []byte
}

// idemEntry is one record and its key's offset in the arena: 128 bytes.
type idemEntry struct {
	off uint32
	idemResult
}

// keyHash is FNV-1a over the key's bytes.
func keyHash(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return h
}

// key returns the key bytes of the record at slot, and where they end in
// the arena.
func (l *idemLog) key(slot int) ([]byte, int) {
	off := int(l.ents.buf[slot].off)
	n, w := binary.Uvarint(l.keys[off:])
	end := off + w + int(n)
	return l.keys[off+w : end], end
}

// find returns the slot holding key, or -1.
func (l *idemLog) find(key string) int {
	h := keyHash(key)
	for slot, x := range l.hashes {
		if x != h {
			continue
		}
		if k, _ := l.key(slot); string(k) == key {
			return slot
		}
	}
	return -1
}

// record stores r under a non-empty key at slot, where find logged it,
// or, when find missed (slot -1), as the newest record, evicting the
// oldest at the cap.
func (l *idemLog) record(key string, slot int, r idemResult) {
	if slot >= 0 {
		l.ents.buf[slot].idemResult = r
		return
	}
	slot = l.ents.push(maxIdemResults)
	var prefix [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(prefix[:], uint64(len(key)))
	if need := w + len(key); len(l.keys)+need > cap(l.keys) {
		l.compact(need, slot)
	}
	l.ents.buf[slot] = idemEntry{off: uint32(len(l.keys)), idemResult: r}
	l.keys = append(append(l.keys, prefix[:w]...), key...)
	if h := keyHash(key); slot == len(l.hashes) {
		l.hashes = append(l.hashes, h)
	} else {
		l.hashes[slot] = h
	}
}

// compact moves the live keys to the front of the arena, oldest first —
// every record's but the one at skip, which is being replaced — into an
// array twice what they and room more need if the arena is smaller.
func (l *idemLog) compact(room, skip int) {
	need := room
	for slot := range l.hashes {
		if slot != skip {
			_, end := l.key(slot)
			need += end - int(l.ents.buf[slot].off)
		}
	}
	keys := l.keys[:0]
	if cap(l.keys) < 2*need {
		keys = make([]byte, 0, 2*need)
	}
	for i := range l.ents.buf {
		slot := l.ents.fifo(i)
		if slot == skip {
			continue
		}
		_, end := l.key(slot)
		e := &l.ents.buf[slot]
		off := len(keys)
		keys = append(keys, l.keys[e.off:end]...)
		e.off = uint32(off)
	}
	l.keys = keys
}

// copyFrom makes l a copy of src in l's own arrays. The recorded status
// replies are shared: nothing writes one after it is recorded.
func (l *idemLog) copyFrom(src *idemLog) {
	l.ents.copyFrom(&src.ents)
	l.hashes, l.keys = copyList(l.hashes, src.hashes), copyList(l.keys, src.keys)
}
