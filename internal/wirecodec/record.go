package wirecodec

import (
	"bytes"
	"fmt"
	"time"

	"github.com/iotbind/iotbind/internal/protocol"
)

// Liveness is a decoded liveness record body.
type Liveness struct {
	DeviceID string
	Owner    string
}

// Record is one decoded WAL record: the time the operation was logged at
// and its request, as the operation's protocol request type by value (a
// Liveness for the liveness record). walinspect describes records
// through it; replay (cloud.Durable) decodes each tag's body straight
// into a local request instead, with no box.
type Record struct {
	At  time.Time
	Req any
}

// putHeader writes what precedes the body in every record: the tag and
// the time the operation executed at.
func putHeader(b *bytes.Buffer, tag uint8, at time.Time) {
	PutU8(b, tag)
	putI64(b, EncodeTime(at))
}

// EncodeRecord writes a cold operation's complete record into b: its
// tag, the time, and its wire body as put — the operation's Put*Body —
// writes it.
func EncodeRecord[Req any](b *bytes.Buffer, tag uint8, at time.Time, put func(*bytes.Buffer, Req), req Req) {
	putHeader(b, tag, at)
	put(b, req)
}

// EncodeStatusRecord writes a complete status record into b.
func EncodeStatusRecord(b *bytes.Buffer, at time.Time, req *protocol.StatusRequest) {
	putHeader(b, TagStatus, at)
	PutStatusBody(b, req)
}

// EncodeLivenessRecord writes a liveness record into b: the device
// whose unlogged bare heartbeats are being made durable, the time of
// the last one, and the session owner it authenticated (empty when the
// design's device auth carries no owner).
func EncodeLivenessRecord(b *bytes.Buffer, at time.Time, deviceID, owner string) {
	putHeader(b, TagLiveness, at)
	PutStr(b, deviceID)
	PutStr(b, owner)
}

// DecodeRecord parses any record payload. A record is its tag, the time
// it was logged at, and the operation's wire body — the same body a
// binapi frame of that kind carries — with nothing after it.
func DecodeRecord(payload []byte) (Record, error) {
	if len(payload) == 0 {
		return Record{}, fmt.Errorf("wirecodec: %w: empty record", protocol.ErrBadRequest)
	}
	c := NewCursor(payload, 1)
	rec := Record{At: DecodeTime(c.I64())}
	switch payload[0] {
	case TagStatus:
		rec.Req = ReadStatusBody(c)
	case TagLiveness:
		rec.Req = Liveness{DeviceID: c.ID(), Owner: c.Str()}
	case TagDelegate:
		rec.Req = ReadDelegateBody(c)
	case TagRevokeDelegation:
		rec.Req = ReadRevokeDelegationBody(c)
	case TagShare:
		rec.Req = ReadShareBody(c)
	case TagRegisterUser:
		rec.Req = ReadRegisterUserBody(c)
	case TagLogin:
		rec.Req = ReadLoginBody(c)
	case TagDeviceToken:
		rec.Req = ReadDeviceTokenBody(c)
	case TagBindToken:
		rec.Req = ReadBindTokenBody(c)
	case TagBind:
		rec.Req = ReadBindBody(c)
	case TagUnbind:
		rec.Req = ReadUnbindBody(c)
	case TagControl:
		rec.Req = ReadControlBody(c)
	case TagUserData:
		rec.Req = ReadUserDataBody(c)
	default:
		return Record{}, fmt.Errorf("wirecodec: %w: unknown record tag 0x%02x", protocol.ErrBadRequest, payload[0])
	}
	if !c.Done() {
		c.Fail()
		return Record{}, c.Err()
	}
	return rec, nil
}

// DescribeRecord renders a one-line human summary of a record payload —
// the walinspect dump format. It never executes the record.
func DescribeRecord(payload []byte) (string, error) {
	rec, err := DecodeRecord(payload)
	if err != nil {
		return "", err
	}
	ts := "-"
	if !rec.At.IsZero() {
		ts = rec.At.UTC().Format(time.RFC3339Nano)
	}
	var desc string
	switch r := rec.Req.(type) {
	case protocol.StatusRequest:
		desc = fmt.Sprintf("status %s device=%s keyed=%t readings=%d",
			r.Kind, r.DeviceID, r.IdempotencyKey != "", len(r.Readings))
	case Liveness:
		desc = fmt.Sprintf("liveness device=%s owner=%q", r.DeviceID, r.Owner)
	case protocol.DelegateRequest:
		desc = fmt.Sprintf("delegate device=%s grantee=%s scopes=%v ttl=%ds depth=%d keyed=%t",
			r.DeviceID, r.Grantee, r.Scopes, r.TTLSeconds, r.Depth, r.IdempotencyKey != "")
	case protocol.RevokeDelegationRequest:
		desc = fmt.Sprintf("revoke_delegation device=%s grantee=%s keyed=%t",
			r.DeviceID, r.Grantee, r.IdempotencyKey != "")
	case protocol.ShareRequest:
		desc = fmt.Sprintf("share device=%s guest=%s revoke=%t", r.DeviceID, r.Guest, r.Revoke)
	case protocol.RegisterUserRequest:
		desc = fmt.Sprintf("register_user user=%s", r.UserID)
	case protocol.LoginRequest:
		desc = fmt.Sprintf("login user=%s", r.UserID)
	case protocol.DeviceTokenRequest:
		desc = fmt.Sprintf("device_token device=%s", r.DeviceID)
	case protocol.BindTokenRequest:
		desc = fmt.Sprintf("bind_token device=%s", r.DeviceID)
	case protocol.BindRequest:
		desc = fmt.Sprintf("bind device=%s sender=%d keyed=%t", r.DeviceID, r.Sender, r.IdempotencyKey != "")
	case protocol.UnbindRequest:
		desc = fmt.Sprintf("unbind device=%s sender=%d", r.DeviceID, r.Sender)
	case protocol.ControlRequest:
		desc = fmt.Sprintf("control device=%s cmd=%s", r.DeviceID, r.Command.Name)
	case protocol.PushUserDataRequest:
		desc = fmt.Sprintf("push device=%s kind=%s", r.DeviceID, r.Data.Kind)
	}
	return ts + " " + desc, nil
}
