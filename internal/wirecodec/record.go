package wirecodec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"github.com/iotbind/iotbind/internal/protocol"
)

// Envelope is the JSON record for the cold operations: exactly one
// request pointer is set, per Op.
type Envelope struct {
	Op  string `json:"op"`
	At  int64  `json:"at"`
	Src string `json:"src,omitempty"`

	RegisterUser *protocol.RegisterUserRequest `json:"register_user,omitempty"`
	Login        *protocol.LoginRequest        `json:"login,omitempty"`
	DeviceToken  *protocol.DeviceTokenRequest  `json:"device_token,omitempty"`
	BindToken    *protocol.BindTokenRequest    `json:"bind_token,omitempty"`
	Bind         *protocol.BindRequest         `json:"bind,omitempty"`
	Unbind       *protocol.UnbindRequest       `json:"unbind,omitempty"`
	Control      *protocol.ControlRequest      `json:"control,omitempty"`
	Push         *protocol.PushUserDataRequest `json:"push,omitempty"`
	Share        *protocol.ShareRequest        `json:"share,omitempty"`
}

// Liveness is a decoded liveness record body.
type Liveness struct {
	DeviceID string
	Owner    string
}

// Record is one decoded record, ready to re-execute (WAL replay) or
// dispatch (wire). Exactly one of the payload pointers is set. Share and
// the delegation operations have first-class binary forms (share also
// still decodes from legacy JSON envelopes).
type Record struct {
	Op string
	At time.Time

	Status           *protocol.StatusRequest
	Batch            *protocol.StatusBatchRequest
	Liveness         *Liveness
	Share            *protocol.ShareRequest
	Delegate         *protocol.DelegateRequest
	RevokeDelegation *protocol.RevokeDelegationRequest
	Env              *Envelope
}

// EncodeStatusRecord writes a complete status record into b.
func EncodeStatusRecord(b *bytes.Buffer, at time.Time, req *protocol.StatusRequest) {
	PutU8(b, TagStatus)
	PutI64(b, EncodeTime(at))
	PutStatusBody(b, req)
}

// EncodeLivenessRecord writes a liveness record into b: the device
// whose unlogged bare heartbeats are being made durable, the time of
// the last one, and the session owner it authenticated (empty when the
// design's device auth carries no owner).
func EncodeLivenessRecord(b *bytes.Buffer, at time.Time, deviceID, owner string) {
	PutU8(b, TagLiveness)
	PutI64(b, EncodeTime(at))
	PutStr(b, deviceID)
	PutStr(b, owner)
}

// EncodeBatchRecord writes a complete status-batch record into b.
func EncodeBatchRecord(b *bytes.Buffer, at time.Time, req *protocol.StatusBatchRequest) {
	PutU8(b, TagBatch)
	PutI64(b, EncodeTime(at))
	PutBatchBody(b, req)
}

// EncodeShareRecord writes a complete share record into b.
func EncodeShareRecord(b *bytes.Buffer, at time.Time, req *protocol.ShareRequest) {
	PutU8(b, TagShare)
	PutI64(b, EncodeTime(at))
	PutShareBody(b, req)
}

// EncodeDelegateRecord writes a complete delegation-grant record into b.
func EncodeDelegateRecord(b *bytes.Buffer, at time.Time, req *protocol.DelegateRequest) {
	PutU8(b, TagDelegate)
	PutI64(b, EncodeTime(at))
	PutDelegateBody(b, req)
}

// EncodeRevokeDelegationRecord writes a complete delegation-revocation
// record into b.
func EncodeRevokeDelegationRecord(b *bytes.Buffer, at time.Time, req *protocol.RevokeDelegationRequest) {
	PutU8(b, TagRevokeDelegation)
	PutI64(b, EncodeTime(at))
	PutRevokeDelegationBody(b, req)
}

// DecodeRecord parses any record payload. A binary record is its tag,
// the time it was logged at, and the operation's wire body — the same
// body a binapi frame of that kind carries — with nothing after it.
func DecodeRecord(payload []byte) (Record, error) {
	if len(payload) == 0 {
		return Record{}, fmt.Errorf("wirecodec: %w: empty record", protocol.ErrBadRequest)
	}
	if payload[0] == TagJSON {
		var env Envelope
		if err := json.Unmarshal(payload, &env); err != nil {
			return Record{}, fmt.Errorf("wirecodec: %w: envelope: %v", protocol.ErrBadRequest, err)
		}
		return Record{Op: env.Op, At: DecodeTime(env.At), Env: &env}, nil
	}
	c := NewCursor(payload, 1)
	rec := Record{At: DecodeTime(c.I64())}
	switch payload[0] {
	case TagStatus:
		req := ReadStatusBody(c)
		rec.Op, rec.Status = "status", &req
	case TagLiveness:
		rec.Op, rec.Liveness = "liveness", &Liveness{DeviceID: c.Str(), Owner: c.Str()}
	case TagBatch:
		req := ReadBatchBody(c)
		rec.Op, rec.Batch = "status_batch", &req
	case TagShare:
		req := ReadShareBody(c)
		rec.Op, rec.Share = "share", &req
	case TagDelegate:
		req := ReadDelegateBody(c)
		rec.Op, rec.Delegate = "delegate", &req
	case TagRevokeDelegation:
		req := ReadRevokeDelegationBody(c)
		rec.Op, rec.RevokeDelegation = "revoke_delegation", &req
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
	switch {
	case rec.Status != nil:
		return fmt.Sprintf("%s status %s device=%s keyed=%t readings=%d",
			ts, rec.Status.Kind, rec.Status.DeviceID,
			rec.Status.IdempotencyKey != "", len(rec.Status.Readings)), nil
	case rec.Batch != nil:
		return fmt.Sprintf("%s status_batch items=%d", ts, len(rec.Batch.Items)), nil
	case rec.Liveness != nil:
		return fmt.Sprintf("%s liveness device=%s owner=%q", ts, rec.Liveness.DeviceID, rec.Liveness.Owner), nil
	case rec.Share != nil:
		return fmt.Sprintf("%s share device=%s guest=%s revoke=%t",
			ts, rec.Share.DeviceID, rec.Share.Guest, rec.Share.Revoke), nil
	case rec.Delegate != nil:
		return fmt.Sprintf("%s delegate device=%s grantee=%s scopes=%v ttl=%ds depth=%d keyed=%t",
			ts, rec.Delegate.DeviceID, rec.Delegate.Grantee, rec.Delegate.Scopes,
			rec.Delegate.TTLSeconds, rec.Delegate.Depth, rec.Delegate.IdempotencyKey != ""), nil
	case rec.RevokeDelegation != nil:
		return fmt.Sprintf("%s revoke_delegation device=%s grantee=%s keyed=%t",
			ts, rec.RevokeDelegation.DeviceID, rec.RevokeDelegation.Grantee,
			rec.RevokeDelegation.IdempotencyKey != ""), nil
	default:
		env := rec.Env
		switch {
		case env.RegisterUser != nil:
			return fmt.Sprintf("%s register_user user=%s", ts, env.RegisterUser.UserID), nil
		case env.Login != nil:
			return fmt.Sprintf("%s login user=%s", ts, env.Login.UserID), nil
		case env.DeviceToken != nil:
			return fmt.Sprintf("%s device_token device=%s", ts, env.DeviceToken.DeviceID), nil
		case env.BindToken != nil:
			return fmt.Sprintf("%s bind_token device=%s", ts, env.BindToken.DeviceID), nil
		case env.Bind != nil:
			return fmt.Sprintf("%s bind device=%s sender=%d keyed=%t",
				ts, env.Bind.DeviceID, env.Bind.Sender, env.Bind.IdempotencyKey != ""), nil
		case env.Unbind != nil:
			return fmt.Sprintf("%s unbind device=%s sender=%d", ts, env.Unbind.DeviceID, env.Unbind.Sender), nil
		case env.Control != nil:
			return fmt.Sprintf("%s control device=%s cmd=%s", ts, env.Control.DeviceID, env.Control.Command.Name), nil
		case env.Push != nil:
			return fmt.Sprintf("%s push device=%s kind=%s", ts, env.Push.DeviceID, env.Push.Data.Kind), nil
		case env.Share != nil:
			return fmt.Sprintf("%s share device=%s guest=%s revoke=%t",
				ts, env.Share.DeviceID, env.Share.Guest, env.Share.Revoke), nil
		default:
			return fmt.Sprintf("%s %s", ts, env.Op), nil
		}
	}
}
