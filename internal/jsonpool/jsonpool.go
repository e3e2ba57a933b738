// Package jsonpool provides pooled JSON encode buffers for the remote
// front ends' hot paths. The per-message pattern it replaces —
// json.Marshal into a fresh byte slice, wrapped in a fresh reader, with a
// fresh io.ReadAll buffer on the response side — allocates several times
// per call; at heartbeat volume that is the dominant garbage source on
// both front ends. A pooled Buffer couples a bytes.Buffer with a
// json.Encoder permanently bound to it, so steady-state encodes reuse the
// same backing array and encoder machinery with zero new allocations.
package jsonpool

import (
	"bytes"
	"encoding/json"
	"sync"
)

// maxRetainedCap bounds the backing arrays the pool holds on to. A rare
// giant frame (e.g. a maximum-size readings list) would otherwise pin its buffer
// forever; past this cap the buffer is dropped for the GC instead of
// pooled.
const maxRetainedCap = 1 << 18 // 256 KiB

// Buffer is a reusable encode/read buffer. Obtain with Get, release with
// Put; the bytes returned by Bytes are valid only until the Put.
type Buffer struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var pool = sync.Pool{
	New: func() any {
		b := &Buffer{}
		b.enc = json.NewEncoder(&b.buf)
		return b
	},
}

// Get returns an empty pooled buffer.
func Get() *Buffer {
	b := pool.Get().(*Buffer)
	b.buf.Reset()
	return b
}

// Put returns a buffer to the pool. Oversized backing arrays are dropped
// so one large frame cannot pin memory for the process lifetime.
func (b *Buffer) Put() {
	if b.buf.Cap() > maxRetainedCap {
		return
	}
	pool.Put(b)
}

// Encode appends v's JSON encoding (with the encoder's trailing newline)
// to the buffer.
func (b *Buffer) Encode(v any) error { return b.enc.Encode(v) }

// EncodeIndent appends v's indented JSON encoding to the buffer. The
// encoder is restored to compact mode before returning, so an indented
// use (snapshot files) never leaks formatting into a pooled encoder's
// next wire-path borrow.
func (b *Buffer) EncodeIndent(v any, prefix, indent string) error {
	b.enc.SetIndent(prefix, indent)
	err := b.enc.Encode(v)
	b.enc.SetIndent("", "")
	return err
}

// Bytes returns the buffered contents. The slice aliases the buffer: it
// must not be used after Put.
func (b *Buffer) Bytes() []byte { return b.buf.Bytes() }

// Len returns the buffered length.
func (b *Buffer) Len() int { return b.buf.Len() }

// Writer exposes the underlying bytes.Buffer for direct writes and
// ReadFrom-style fills (e.g. draining an HTTP response body into the
// pooled array instead of a fresh io.ReadAll slice).
func (b *Buffer) Writer() *bytes.Buffer { return &b.buf }
