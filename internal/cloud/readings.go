package cloud

import (
	"sync"

	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/wirecodec"
)

// ring is a FIFO window of at most a fixed number of elements. buf grows
// by doubling up to that limit; once full, each push takes the oldest
// element's slot, head, so a push at a full window moves nothing. head
// is 0 until buf is full.
type ring[T any] struct {
	buf  []T
	head int
}

// push returns the slot of a new newest element, of at most limit:
// appended while there is room, else the oldest's, whose element is
// still there for the caller to read before overwriting it.
func (r *ring[T]) push(limit int) int {
	n := len(r.buf)
	if n < limit {
		if n == cap(r.buf) {
			r.buf = append(make([]T, 0, min(max(2*n, 1), limit)), r.buf...)
		}
		r.buf = r.buf[:n+1]
		return n
	}
	slot := r.head
	if r.head++; r.head == n {
		r.head = 0
	}
	return slot
}

// fifo returns the slot of the i-th oldest element.
func (r *ring[T]) fifo(i int) int { return (r.head + i) % len(r.buf) }

// copyFrom makes r a copy of src in r's own array.
func (r *ring[T]) copyFrom(src *ring[T]) {
	r.buf, r.head = copyList(r.buf, src.buf), src.head
}

// readingRing is a shadow's readings window: its newest readingsRetention
// readings.
type readingRing struct{ ring[heldReading] }

// heldReading is a reading as the window keeps it, in 32 bytes: the time
// in its wire form (wirecodec.EncodeTime), which reads back as the
// replica and recovery decode it — in UTC, without a monotonic clock.
type heldReading struct {
	name  string
	value float64
	at    int64
}

// add appends list, oldest first, shedding what falls out of the window;
// each name is kept as names holds it.
func (r *readingRing) add(list []protocol.Reading, names *nameTable) {
	for _, x := range list[max(0, len(list)-readingsRetention):] {
		r.buf[r.push(readingsRetention)] = heldReading{name: names.hold(x.Name), value: x.Value, at: wirecodec.EncodeTime(x.At)}
	}
}

// list returns the window, oldest first; nil when it is empty, as
// Snapshot writes an empty list.
func (r *readingRing) list() []protocol.Reading {
	if len(r.buf) == 0 {
		return nil
	}
	out := make([]protocol.Reading, len(r.buf))
	for i := range out {
		x := &r.buf[r.fifo(i)]
		out[i] = protocol.Reading{Name: x.name, Value: x.value, At: wirecodec.DecodeTime(x.at)}
	}
	return out
}

// maxNames bounds the service's name table: a device reports a handful
// of metric names and takes a handful of commands. maxHeldName is the
// longest name it holds.
const (
	maxNames    = 1024
	maxHeldName = 64
)

// nameTable is the service-wide table of reading and command names
// (protocol.HeldName): the first maxNames distinct names of at most
// maxHeldName bytes in statuses and controls the service accepted, each
// held once, so neither a shadow's readings window nor its command inbox
// keeps a string of its own per name. Only an accepted request adds a
// name: a frame that is refused, or that no device or owner sent, leaves
// the table as it was.
type nameTable struct {
	mu    sync.RWMutex
	names map[string]string
}

// lookup returns the table's string equal to raw, or a fresh copy of raw.
func (t *nameTable) lookup(raw []byte) string {
	t.mu.RLock()
	name, ok := t.names[string(raw)]
	t.mu.RUnlock()
	if !ok {
		name = string(raw)
	}
	return name
}

// hold returns the table's string equal to name, adding name while the
// table has room for it; a name it does not hold comes back as it was.
func (t *nameTable) hold(name string) string {
	t.mu.RLock()
	held, ok := t.names[name]
	full := len(t.names) >= maxNames
	t.mu.RUnlock()
	switch {
	case ok:
		return held
	case full || len(name) > maxHeldName:
		return name
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if held, ok := t.names[name]; ok {
		return held
	}
	if len(t.names) < maxNames {
		if t.names == nil {
			t.names = make(map[string]string)
		}
		t.names[name] = name
	}
	return name
}
