package cloud

// The binary record codec moved to internal/wirecodec (shared with the
// binapi wire front end); its round-trip, truncation and allocation-
// bound tests moved with it. What stays here is the cloud-side glue:
// the snapshot codec's pooled-buffer guard and the reference replay
// dispatch the apply table is held to (applyrecord_test.go).

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"

	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/wirecodec"
)

// applyWALRecord is the reference replay: it re-executes a record
// decoded by wirecodec.DecodeRecord against the service through the
// exported (stat-counting) handlers, one case per request type.
// Application-level errors are discarded: a logged operation that failed
// live fails identically on replay.
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

// TestWALRecordApplyRoundTrip proves a record encoded by wirecodec
// decodes and applies against a live service — the replay path exercised
// end to end without a WAL underneath.
func TestWALRecordApplyRoundTrip(t *testing.T) {
	svc, _, _, _ := newTestService(t, devIDDesign())
	at := time.Date(2026, 7, 6, 12, 0, 1, 0, time.UTC)
	var buf bytes.Buffer
	wirecodec.EncodeStatusRecord(&buf, at, &protocol.StatusRequest{
		Kind: protocol.StatusRegister, DeviceID: testDevice,
	})
	rec, err := wirecodec.DecodeRecord(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := applyWALRecord(rec, svc); err != nil {
		t.Fatal(err)
	}
	st, err := svc.ShadowState(protocol.ShadowStateRequest{DeviceID: testDevice})
	if err != nil {
		t.Fatal(err)
	}
	if st.State.String() != "online" {
		t.Errorf("after applied register, shadow state = %v, want online", st.State)
	}
}

// TestSnapshotCodecSteadyStateAllocations extends the jsonpool
// allocation guard to the snapshot codec: repeated EncodeSnapshot /
// ReadSnapshot cycles must reuse pooled buffers rather than grow a
// fresh encoder and staging array per checkpoint.
func TestSnapshotCodecSteadyStateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	svc, clock, victim, _ := newTestService(t, devIDDesign())
	mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice})
	if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: victim}); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Second)
	snap := svc.Snapshot()

	var encoded bytes.Buffer
	if err := EncodeSnapshot(&encoded, snap); err != nil {
		t.Fatal(err)
	}

	// The absolute count is dominated by encoding/json reflection over
	// the snapshot value itself; the guard pins it to a ceiling well
	// below what a per-call encoder + staging buffer would cost, so a
	// regression that abandons the pool trips it.
	encAvg := testing.AllocsPerRun(100, func() {
		if err := EncodeSnapshot(io.Discard, snap); err != nil {
			t.Fatal(err)
		}
	})
	if encAvg > 40 {
		t.Errorf("steady-state EncodeSnapshot = %.1f allocs/op, want <= 40", encAvg)
	}

	data := encoded.Bytes()
	readAvg := testing.AllocsPerRun(100, func() {
		if _, err := ReadSnapshot(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	})
	if readAvg > 300 {
		t.Errorf("steady-state ReadSnapshot = %.1f allocs/op, want <= 300", readAvg)
	}
}
