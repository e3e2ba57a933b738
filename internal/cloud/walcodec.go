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
	switch req := r.Req.(type) {
	case protocol.StatusRequest:
		_, _ = s.HandleStatus(req)
	case protocol.StatusBatchRequest:
		// The handler mutates item source addresses in place; give it
		// its own copy so the decoded record stays pristine.
		req.Items = append([]protocol.StatusRequest(nil), req.Items...)
		_, _ = s.HandleStatusBatch(req)
	case wirecodec.Liveness:
		s.applyLiveness(req.DeviceID, r.At, req.Owner)
	case protocol.RegisterUserRequest:
		_ = s.RegisterUser(req)
	case protocol.LoginRequest:
		_, _ = s.Login(req)
	case protocol.DeviceTokenRequest:
		_, _ = s.RequestDeviceToken(req)
	case protocol.BindTokenRequest:
		_, _ = s.RequestBindToken(req)
	case protocol.BindRequest:
		_, _ = s.HandleBind(req)
	case protocol.UnbindRequest:
		_ = s.HandleUnbind(req)
	case protocol.ControlRequest:
		_, _ = s.HandleControl(req)
	case protocol.PushUserDataRequest:
		_ = s.PushUserData(req)
	case protocol.ShareRequest:
		_ = s.HandleShare(req)
	case protocol.DelegateRequest:
		_, _ = s.HandleDelegate(req)
	case protocol.RevokeDelegationRequest:
		_ = s.HandleRevokeDelegation(req)
	default:
		return fmt.Errorf("cloud: %w: WAL record carries no request", protocol.ErrBadRequest)
	}
	return nil
}
