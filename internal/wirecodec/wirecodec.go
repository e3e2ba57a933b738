// Package wirecodec holds the binary forms of the seventeen cloud
// operations, shared by the write-ahead log (cloud.Durable) and the
// persistent-connection binary front end (binapi). Each operation has
// one request body and, where it answers with data, one response body,
// each written by exactly one piece of code; the two consumers differ
// only in what they put in front of a body:
//
//   - a binapi frame of the operation's kind carries the bare body;
//   - a WAL record is a tag byte, the wall-clock time the operation
//     executed at, and the same request body (record.go). Tags 0x01 and
//     0x02 are the hot operations (status, status batch), whose encoders
//     are a flat length-prefixed field walk into a caller-owned buffer —
//     no reflection, no intermediate allocations; 0x04-0x0e are the
//     eleven logged cold operations; 0x03 is the liveness record, which
//     has no wire counterpart — the coalesced effect of a device's
//     unlogged bare heartbeats (lastSeen, session owner), flushed by
//     cloud.Durable ahead of any logged record whose outcome could
//     depend on that state.
//
// For the logged operations binapi's frame kind equals the record tag,
// so a captured request frame's payload is bit-identical to the body of
// the record it produced (but for the source address the server stamps).
// WAL replay pins the service clock to the record's time. Decoders bound
// every count-prefixed allocation by remaining-bytes / minimum-item-
// size, so a corrupt or crafted count cannot force an allocation orders
// of magnitude larger than the record that carries it.
package wirecodec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"github.com/iotbind/iotbind/internal/protocol"
)

// Record tags: the first payload byte.
const (
	TagStatus           = 0x01
	TagBatch            = 0x02
	TagLiveness         = 0x03
	TagDelegate         = 0x04
	TagRevokeDelegation = 0x05
	TagShare            = 0x06
	TagRegisterUser     = 0x07
	TagLogin            = 0x08
	TagDeviceToken      = 0x09
	TagBindToken        = 0x0a
	TagBind             = 0x0b
	TagUnbind           = 0x0c
	TagControl          = 0x0d
	TagUserData         = 0x0e
)

// Minimum encoded item sizes, used with Cursor.Count to bound
// count-prefixed allocations.
const (
	// MinReadingSize is an empty-name reading: name uvarint(1) +
	// value f64(8) + time i64(8).
	MinReadingSize = 17
	// MinStatusSize is an all-empty status body: kind u8(1) + nine
	// empty strings (1 each) + button u8(1) + readings count uvarint(1).
	MinStatusSize = 12
	// MinCommandSize is an empty command: id(1) + name(1) + args
	// count(1).
	MinCommandSize = 3
	// MinUserDataSize is an empty user-data item: kind(1) + body(1).
	MinUserDataSize = 2
	// MinStringSize is an empty length-prefixed string.
	MinStringSize = 1
	// MinBatchResultSize is an empty batch item outcome: code(1) +
	// message(1) + an all-empty status response (bound u8(1) + nonce(1)
	// + command count(1) + user-data count(1)).
	MinBatchResultSize = 6
	// MinDelegationInfoSize is an empty listed grant: grantor(1) +
	// grantee(1) + scope count(1) + expiry i64(8) + depth i64(8).
	MinDelegationInfoSize = 19
)

// timeZero encodes time.Time{} — UnixNano is undefined for the zero
// time, so it travels as a sentinel.
const timeZero = math.MinInt64

// EncodeTime converts a wall-clock instant to its wire form.
func EncodeTime(t time.Time) int64 {
	if t.IsZero() {
		return timeZero
	}
	return t.UnixNano()
}

// DecodeTime reverses EncodeTime.
func DecodeTime(v int64) time.Time {
	if v == timeZero {
		return time.Time{}
	}
	return time.Unix(0, v).UTC()
}

// ---- binary primitives -----------------------------------------------------

// PutU8 appends one byte.
func PutU8(b *bytes.Buffer, v uint8) { b.WriteByte(v) }

// PutI64 appends a little-endian int64.
func PutI64(b *bytes.Buffer, v int64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], uint64(v))
	b.Write(tmp[:])
}

// PutUvarint appends a varint-encoded count or length.
func PutUvarint(b *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	b.Write(tmp[:n])
}

// PutStr appends a length-prefixed string.
func PutStr(b *bytes.Buffer, s string) {
	PutUvarint(b, uint64(len(s)))
	b.WriteString(s)
}

// PutF64 appends a little-endian float64.
func PutF64(b *bytes.Buffer, v float64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v))
	b.Write(tmp[:])
}

// Cursor is a bounds-checked reader over a binary record. The first
// failure sticks; every accessor afterwards returns a zero value, and
// the caller checks Err once at the end. Strings alias nothing; readings
// are borrowed until Reset. Each Str copies out of the input, each ID is
// such a copy or a string the cursor's owner holds (SetIDs), and a status
// request's readings are cut from an arena the cursor reuses after Reset
// (ReadStatusRest), so whoever keeps a reading copies it.
type Cursor struct {
	data  []byte
	off   int
	err   error
	ids   func(raw []byte) string
	arena []protocol.Reading
}

// NewCursor positions a cursor at off within data.
func NewCursor(data []byte, off int) *Cursor {
	return &Cursor{data: data, off: off}
}

// Reset repositions the cursor at the start of data and clears any
// failure, for a cursor that lives in a long-lived owner: a pointer to a
// fresh cursor handed to a func value would escape to the heap. The
// device-ID canonicaliser stays installed and the readings arena is
// reused, unless it grew past 4 MiB (binapi drops worker.out there too).
func (c *Cursor) Reset(data []byte) {
	if cap(c.arena) > 4<<20/48 { // a reading is 48 bytes
		c.arena = nil
	}
	*c = Cursor{data: data, ids: c.ids, arena: c.arena[:0]}
}

// SetIDs installs the canonicaliser ID reads device IDs through: given
// an ID's raw bytes (aliasing the input, valid only during the call) it
// returns a string equal to them — one its owner holds already when it
// can, so a device it knows costs no allocation. Nil restores copying.
// Pass a func value built once per owner: a method value made per call
// is an allocation of its own.
func (c *Cursor) SetIDs(ids func(raw []byte) string) { c.ids = ids }

// Err returns the sticky decode failure, if any.
func (c *Cursor) Err() error { return c.err }

// Done reports whether every byte was consumed; trailing garbage is a
// decode error the same way truncation is.
func (c *Cursor) Done() bool { return c.err == nil && c.off == len(c.data) }

// Fail marks the cursor failed (truncated or trailing-garbage record).
func (c *Cursor) Fail() {
	if c.err == nil {
		c.err = fmt.Errorf("wirecodec: %w: truncated record", protocol.ErrBadRequest)
	}
}

// U8 reads one byte.
func (c *Cursor) U8() uint8 {
	if c.err != nil || c.off >= len(c.data) {
		c.Fail()
		return 0
	}
	v := c.data[c.off]
	c.off++
	return v
}

// I64 reads a little-endian int64.
func (c *Cursor) I64() int64 {
	if c.err != nil || c.off+8 > len(c.data) {
		c.Fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(c.data[c.off:])
	c.off += 8
	return int64(v)
}

// F64 reads a little-endian float64.
func (c *Cursor) F64() float64 { return math.Float64frombits(uint64(c.I64())) }

// Uvarint reads a varint-encoded count or length.
func (c *Cursor) Uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.data[c.off:])
	if n <= 0 {
		c.Fail()
		return 0
	}
	c.off += n
	return v
}

// Str reads a length-prefixed string.
func (c *Cursor) Str() string {
	n := c.Uvarint()
	if c.err != nil {
		return ""
	}
	if n > uint64(len(c.data)-c.off) {
		c.Fail()
		return ""
	}
	s := string(c.data[c.off : c.off+int(n)])
	c.off += int(n)
	return s
}

// ID reads a length-prefixed device ID through the canonicaliser SetIDs
// installed, or copies it like Str when there is none.
func (c *Cursor) ID() string {
	raw := c.StrBytes()
	if c.ids == nil || c.err != nil {
		return string(raw)
	}
	return c.ids(raw)
}

// StrBytes reads a length-prefixed string but returns the raw bytes,
// aliasing the input. Hot-path decoders use it to intern repeated
// values (a connection's device ID) without a per-message allocation;
// the slice is valid only as long as the input buffer.
func (c *Cursor) StrBytes() []byte {
	n := c.Uvarint()
	if c.err != nil {
		return nil
	}
	if n > uint64(len(c.data)-c.off) {
		c.Fail()
		return nil
	}
	b := c.data[c.off : c.off+int(n)]
	c.off += int(n)
	return b
}

// Count reads an item count and rejects any that could not fit in the
// remaining bytes at min encoded bytes per item, before the caller
// sizes an allocation by it.
func (c *Cursor) Count(min int) uint64 {
	n := c.Uvarint()
	if c.err != nil {
		return 0
	}
	if n > uint64(len(c.data)-c.off)/uint64(min) {
		c.Fail()
		return 0
	}
	return n
}

// ---- status request body ---------------------------------------------------

// PutStatusBody serializes one StatusRequest (including its source
// address, which does not travel in JSON: the WAL must replay the
// address the transport stamped, and remote binapi servers overwrite it
// with the connection's address before dispatch).
func PutStatusBody(b *bytes.Buffer, req *protocol.StatusRequest) {
	PutU8(b, uint8(req.Kind))
	PutStr(b, req.DeviceID)
	PutStr(b, req.DevToken)
	PutStr(b, req.Signature)
	PutStr(b, req.SessionToken)
	PutStr(b, req.DataProof)
	PutStr(b, req.IdempotencyKey)
	PutStr(b, req.Firmware)
	PutStr(b, req.Model)
	PutStr(b, req.SourceIP)
	putBool(b, req.ButtonPressed)
	putReadings(b, req.Readings)
}

// putReadings writes a count-prefixed reading list; readReadings fills
// one the caller sized with Cursor.Count(MinReadingSize).
func putReadings(b *bytes.Buffer, list []protocol.Reading) {
	PutUvarint(b, uint64(len(list)))
	for i := range list {
		PutStr(b, list[i].Name)
		PutF64(b, list[i].Value)
		PutI64(b, EncodeTime(list[i].At))
	}
}

func readReadings(c *Cursor, list []protocol.Reading) {
	for i := range list {
		list[i].Name = c.Str()
		list[i].Value = c.F64()
		list[i].At = DecodeTime(c.I64())
	}
}

// ReadStatusBody decodes one StatusRequest.
func ReadStatusBody(c *Cursor) protocol.StatusRequest {
	var req protocol.StatusRequest
	req.Kind = protocol.StatusKind(c.U8())
	req.DeviceID = c.ID()
	req.SourceIP = string(ReadStatusRest(c, &req))
	return req
}

// ReadStatusRest decodes the fields following Kind and DeviceID into
// req, except the source address, which it returns raw (aliasing the
// input) and leaves unset. Split out for the binapi server, which drops
// the sender's address claim undecoded (conn.cloud stamps the
// transport's), so its decode of a bare heartbeat allocates nothing.
// ReadStatusBody, which replays the address that was stamped,
// materialises it. The readings are borrowed (see Cursor).
func ReadStatusRest(c *Cursor, req *protocol.StatusRequest) (sourceIP []byte) {
	req.DevToken = c.Str()
	req.Signature = c.Str()
	req.SessionToken = c.Str()
	req.DataProof = c.Str()
	req.IdempotencyKey = c.Str()
	req.Firmware = c.Str()
	req.Model = c.Str()
	sourceIP = c.StrBytes()
	req.ButtonPressed = c.U8() != 0
	if n := c.Count(MinReadingSize); n > 0 {
		// Cut from the arena and capped: no request appends into the next's.
		i := len(c.arena)
		c.arena = append(c.arena, make([]protocol.Reading, n)...)
		req.Readings = c.arena[i:len(c.arena):len(c.arena)]
		readReadings(c, req.Readings)
	}
	return sourceIP
}

// ---- status response body --------------------------------------------------

// PutStatusResponse serializes one StatusResponse — the wire-only
// counterpart of PutStatusBody (responses are never logged, so this
// form has no WAL tag).
func PutStatusResponse(b *bytes.Buffer, resp *protocol.StatusResponse) {
	putBool(b, resp.Bound)
	PutStr(b, resp.SessionNonce)
	PutUvarint(b, uint64(len(resp.Commands)))
	for i := range resp.Commands {
		PutCommand(b, &resp.Commands[i])
	}
	PutUvarint(b, uint64(len(resp.UserData)))
	for i := range resp.UserData {
		PutStr(b, resp.UserData[i].Kind)
		PutStr(b, resp.UserData[i].Body)
	}
}

// ReadStatusResponse decodes one StatusResponse.
func ReadStatusResponse(c *Cursor) protocol.StatusResponse {
	var resp protocol.StatusResponse
	resp.Bound = c.U8() != 0
	resp.SessionNonce = c.Str()
	if n := c.Count(MinCommandSize); c.err == nil && n > 0 {
		resp.Commands = make([]protocol.Command, n)
		for i := range resp.Commands {
			resp.Commands[i] = ReadCommand(c)
		}
	}
	if n := c.Count(MinUserDataSize); c.err == nil && n > 0 {
		resp.UserData = make([]protocol.UserData, n)
		for i := range resp.UserData {
			resp.UserData[i].Kind = c.Str()
			resp.UserData[i].Body = c.Str()
		}
	}
	return resp
}

// PutStatusBatchResponse serializes the per-item outcomes of a status
// batch, index-aligned with the request.
func PutStatusBatchResponse(b *bytes.Buffer, resp *protocol.StatusBatchResponse) {
	PutUvarint(b, uint64(len(resp.Results)))
	for i := range resp.Results {
		r := &resp.Results[i]
		PutStr(b, r.Code)
		PutStr(b, r.Message)
		PutStatusResponse(b, &r.Response)
	}
}

// ReadStatusBatchResponse decodes the per-item outcomes of a status
// batch.
func ReadStatusBatchResponse(c *Cursor) protocol.StatusBatchResponse {
	var resp protocol.StatusBatchResponse
	n := c.Count(MinBatchResultSize)
	if c.err != nil || n == 0 {
		return resp
	}
	resp.Results = make([]protocol.StatusBatchResult, n)
	for i := range resp.Results {
		resp.Results[i].Code = c.Str()
		resp.Results[i].Message = c.Str()
		resp.Results[i].Response = ReadStatusResponse(c)
	}
	return resp
}

// PutCommand serializes one control command.
func PutCommand(b *bytes.Buffer, cmd *protocol.Command) {
	PutStr(b, cmd.ID)
	PutStr(b, cmd.Name)
	PutUvarint(b, uint64(len(cmd.Args)))
	if len(cmd.Args) > 0 {
		// Deterministic order so identical commands encode identically
		// regardless of map iteration; args are tiny.
		keys := make([]string, 0, len(cmd.Args))
		for k := range cmd.Args {
			keys = append(keys, k)
		}
		sortStrings(keys)
		for _, k := range keys {
			PutStr(b, k)
			PutStr(b, cmd.Args[k])
		}
	}
}

// ReadCommand decodes one control command.
func ReadCommand(c *Cursor) protocol.Command {
	var cmd protocol.Command
	cmd.ID = c.Str()
	cmd.Name = c.Str()
	if n := c.Count(2 * MinStringSize); c.err == nil && n > 0 {
		cmd.Args = make(map[string]string, n)
		for i := uint64(0); i < n; i++ {
			k := c.Str()
			cmd.Args[k] = c.Str()
		}
	}
	return cmd
}

// sortStrings is an insertion sort: arg maps hold a handful of keys and
// pulling in package sort would be the only import for it.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
