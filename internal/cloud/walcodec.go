package cloud

import (
	"fmt"
	"time"

	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/wirecodec"
)

// Record encoding lives in internal/wirecodec, shared with binapi; what
// is cloud-side is applying a record to the Service during replay.

// applyRow re-executes the body of one record tag, which c is positioned
// at, under the record's time and its LSN's entropy stream. It fails only
// on a body that does not decode: a logged operation that failed live
// fails identically on replay, so the handler's answer is discarded.
type applyRow func(d *Durable, c *wirecodec.Cursor, at time.Time, lsn uint64) error

// applyRows is the replay dispatch table, indexed by record tag (nil: an
// unknown tag). A row decodes into a local request — no boxed Record —
// and calls the exported, stat-counting handler the live operation ran.
var applyRows = [256]applyRow{
	wirecodec.TagStatus:           replayed(wirecodec.ReadStatusBody, (*Service).HandleStatus),
	wirecodec.TagLiveness:         applyLiveness,
	wirecodec.TagDelegate:         replayed(wirecodec.ReadDelegateBody, (*Service).HandleDelegate),
	wirecodec.TagRevokeDelegation: replayedErr(wirecodec.ReadRevokeDelegationBody, (*Service).HandleRevokeDelegation),
	wirecodec.TagShare:            replayedErr(wirecodec.ReadShareBody, (*Service).HandleShare),
	wirecodec.TagRegisterUser:     replayedErr(wirecodec.ReadRegisterUserBody, (*Service).RegisterUser),
	wirecodec.TagLogin:            replayed(wirecodec.ReadLoginBody, (*Service).Login),
	wirecodec.TagDeviceToken:      replayed(wirecodec.ReadDeviceTokenBody, (*Service).RequestDeviceToken),
	wirecodec.TagBindToken:        replayed(wirecodec.ReadBindTokenBody, (*Service).RequestBindToken),
	wirecodec.TagBind:             replayed(wirecodec.ReadBindBody, (*Service).HandleBind),
	wirecodec.TagUnbind:           replayedErr(wirecodec.ReadUnbindBody, (*Service).HandleUnbind),
	wirecodec.TagControl:          replayed(wirecodec.ReadControlBody, (*Service).HandleControl),
	wirecodec.TagUserData:         replayedErr(wirecodec.ReadUserDataBody, (*Service).PushUserData),
}

// replayed builds an operation's row from its body decoder and handler:
// decode, refuse trailing bytes, run under the record's clock and stream.
func replayed[Req, Resp any](read func(*wirecodec.Cursor) Req, handle func(*Service, Req) (Resp, error)) applyRow {
	return func(d *Durable, c *wirecodec.Cursor, at time.Time, lsn uint64) error {
		req := read(c)
		if !c.Done() {
			c.Fail()
			return c.Err()
		}
		d.beginOp(at, d.stream(lsn))
		_, _ = handle(d.svc, req)
		d.endOp()
		return nil
	}
}

// replayedErr is replayed for a handler that returns only an error.
func replayedErr[Req any](read func(*wirecodec.Cursor) Req, handle func(*Service, Req) error) applyRow {
	return replayed(read, func(s *Service, req Req) (struct{}, error) { return struct{}{}, handle(s, req) })
}

// applyLiveness is the liveness record's row (Service.applyLiveness).
func applyLiveness(d *Durable, c *wirecodec.Cursor, at time.Time, _ uint64) error {
	id, owner := c.ID(), c.Str()
	if !c.Done() {
		c.Fail()
		return c.Err()
	}
	d.svc.applyLiveness(id, at, owner)
	return nil
}

// applyRecord executes one WAL record — its tag, the time it was logged
// at, then the operation's wire body with nothing after it — through the
// tag's row: recovery (single-goroutine) and ShipRecord (under d.mu
// exclusively).
func (d *Durable) applyRecord(lsn uint64, payload []byte) error {
	var row applyRow
	if len(payload) > 0 {
		row = applyRows[payload[0]]
	}
	if row == nil {
		return fmt.Errorf("cloud: WAL record %d: %w: empty record or unknown tag", lsn, protocol.ErrBadRequest)
	}
	d.cur.Reset(payload)
	d.cur.U8()
	if err := row(d, &d.cur, wirecodec.DecodeTime(d.cur.I64()), lsn); err != nil {
		return fmt.Errorf("cloud: WAL record %d: %w", lsn, err)
	}
	return nil
}
