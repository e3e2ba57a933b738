package cloud

// The binary record codec moved to internal/wirecodec (shared with the
// binapi wire front end); its round-trip, truncation and allocation-
// bound tests moved with it. What stays here is the cloud-side glue:
// the snapshot codec's pooled-buffer guard and the replay dispatch.

import (
	"bytes"
	"io"
	"testing"
	"time"

	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/wirecodec"
)

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
