package cloud

import (
	"fmt"

	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/wirecodec"
)

// WAL record encoding lives in internal/wirecodec, shared with the
// binary wire front end (binapi) so a message is serialized by exactly
// one encoder whether it is logged for durability or framed for the
// wire. What is genuinely cloud-side stays here: applying a decoded
// record to a Service during replay.

// applyWALRecord re-executes a decoded record against the service
// through the exported (stat-counting) handlers, so replayed operations
// move the activity counters exactly as the live executions did.
// Application-level errors are discarded: a logged operation that
// failed live fails identically on replay, and that failure is part of
// the state being rebuilt.
func applyWALRecord(r wirecodec.Record, s *Service) error {
	switch {
	case r.Status != nil:
		_, _ = s.HandleStatus(*r.Status)
	case r.Batch != nil:
		// The handler mutates item source addresses in place; give it
		// its own copy so the decoded record stays pristine.
		req := *r.Batch
		req.Items = append([]protocol.StatusRequest(nil), r.Batch.Items...)
		_, _ = s.HandleStatusBatch(req)
	case r.Liveness != nil:
		s.applyLiveness(r.Liveness.DeviceID, r.At, r.Liveness.Owner)
	case r.Share != nil:
		_ = s.HandleShare(*r.Share)
	case r.Delegate != nil:
		_, _ = s.HandleDelegate(*r.Delegate)
	case r.RevokeDelegation != nil:
		_ = s.HandleRevokeDelegation(*r.RevokeDelegation)
	case r.Env != nil:
		env := r.Env
		switch {
		case env.RegisterUser != nil:
			_ = s.RegisterUser(*env.RegisterUser)
		case env.Login != nil:
			_, _ = s.Login(*env.Login)
		case env.DeviceToken != nil:
			_, _ = s.RequestDeviceToken(*env.DeviceToken)
		case env.BindToken != nil:
			_, _ = s.RequestBindToken(*env.BindToken)
		case env.Bind != nil:
			req := *env.Bind
			req.SourceIP = env.Src
			_, _ = s.HandleBind(req)
		case env.Unbind != nil:
			req := *env.Unbind
			req.SourceIP = env.Src
			_ = s.HandleUnbind(req)
		case env.Control != nil:
			req := *env.Control
			req.SourceIP = env.Src
			_, _ = s.HandleControl(req)
		case env.Push != nil:
			_ = s.PushUserData(*env.Push)
		case env.Share != nil:
			_ = s.HandleShare(*env.Share)
		default:
			return fmt.Errorf("cloud: %w: WAL envelope op %q carries no request", protocol.ErrBadRequest, env.Op)
		}
	default:
		return fmt.Errorf("cloud: %w: empty WAL record", protocol.ErrBadRequest)
	}
	return nil
}
