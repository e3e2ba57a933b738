package cloud

import (
	"bytes"
	"encoding/hex"
	"errors"
	"testing"
	"time"

	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/wal"
	"github.com/iotbind/iotbind/internal/wirecodec"
)

// pinnedStatusRecord is the status row of wirecodec's TestRecordBytesPinned:
// a keyed heartbeat with every field set, one reading and a button press.
const pinnedStatusRecord = "01008007ca8db1bf1802056465762d310264740273670273740264700468622d3103312e30016d0b3230332e302e3131332e37010107706f7765725f770000000000001240008007ca8db1bf18"

// statusRecordForms are the shapes a status record takes in a log, as
// record payloads: the pinned one, then a register, a bare heartbeat, a
// keyed one, one with readings, one with a button press and one for a
// device the registry does not know, all against device "dev-1".
func statusRecordForms(tb testing.TB) [][]byte {
	pinned, err := hex.DecodeString(pinnedStatusRecord)
	if err != nil {
		tb.Fatal(err)
	}
	at := time.Date(2026, 7, 6, 12, 0, 1, 0, time.UTC)
	forms := [][]byte{pinned}
	for i, req := range []protocol.StatusRequest{
		{Kind: protocol.StatusRegister, DeviceID: "dev-1", Firmware: "1.0", Model: "m", SourceIP: "203.0.113.7"},
		{Kind: protocol.StatusHeartbeat, DeviceID: "dev-1"},
		{Kind: protocol.StatusHeartbeat, DeviceID: "dev-1", IdempotencyKey: "hb-2"},
		{Kind: protocol.StatusHeartbeat, DeviceID: "dev-1", Readings: []protocol.Reading{
			{Name: "power_w", Value: 4.5, At: at}, {Name: "temp_c", Value: -3, At: at}}},
		{Kind: protocol.StatusRegister, DeviceID: "dev-1", ButtonPressed: true, SourceIP: "198.51.100.66"},
		{Kind: protocol.StatusHeartbeat, DeviceID: "dev-9", IdempotencyKey: "hb-3"},
	} {
		var b bytes.Buffer
		wirecodec.EncodeStatusRecord(&b, at.Add(time.Duration(i)*time.Second), &req)
		forms = append(forms, b.Bytes())
	}
	return forms
}

// applyPair is two stores with one master seed. Each record is applied to
// one through Durable.applyStatusRecord, the typed path replication and
// recovery take, and to the other through wirecodec.DecodeRecord and
// applyWALRecord, the generic path every other record takes and the
// reference here.
type applyPair struct {
	typed, generic *Durable
	lsn            uint64
}

func newApplyPair(tb testing.TB, design core.DesignSpec) *applyPair {
	tb.Helper()
	clock := newTestClock()
	reg := NewRegistry()
	if err := reg.Add(DeviceRecord{ID: "dev-1", FactorySecret: testSecret, Model: "plug"}); err != nil {
		tb.Fatal(err)
	}
	dir := tb.TempDir()
	typed, err := OpenDurable(dir, design, reg, DurableOptions{
		Clock: clock.Now, Follower: true, WAL: wal.Options{Policy: wal.SyncOff}})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { typed.Close() })
	return &applyPair{typed: typed, generic: openReplicaDesign(tb, dir, tb.TempDir(), design, reg, clock)}
}

// apply hands payload to both paths at the next LSN and requires one
// verdict — both accept, or both refuse with ErrBadRequest — and
// byte-equal snapshots afterwards. It reports whether they accepted.
func (p *applyPair) apply(tb testing.TB, payload []byte) bool {
	tb.Helper()
	p.lsn++
	typedErr := p.typed.applyStatusRecord(p.lsn, payload)
	genericErr := p.generic.applyDecodedRecord(p.lsn, payload)
	if (typedErr == nil) != (genericErr == nil) {
		tb.Fatalf("record %x: typed apply says %v, generic apply says %v", payload, typedErr, genericErr)
	}
	if typedErr != nil && !(errors.Is(typedErr, protocol.ErrBadRequest) && errors.Is(genericErr, protocol.ErrBadRequest)) {
		tb.Fatalf("record %x refused with %v / %v, want ErrBadRequest from both", payload, typedErr, genericErr)
	}
	var typed, generic bytes.Buffer
	if err := EncodeSnapshot(&typed, p.typed.Snapshot()); err != nil {
		tb.Fatal(err)
	}
	if err := EncodeSnapshot(&generic, p.generic.Snapshot()); err != nil {
		tb.Fatal(err)
	}
	if !bytes.Equal(typed.Bytes(), generic.Bytes()) {
		tb.Fatalf("after record %x the snapshots differ:\ntyped:\n%s\ngeneric:\n%s", payload, typed.Bytes(), generic.Bytes())
	}
	return typedErr == nil
}

// applyDesigns are the two postures the equivalence is checked under:
// one that accepts every form (so readings, idempotency records and the
// device address land in the snapshot) and one where a register mints a
// session nonce from the record's stream and opens the button window.
func applyDesigns() []core.DesignSpec {
	strict := devIDDesign()
	strict.Name = "data-session-button"
	strict.DataRequiresSession = true
	strict.BindButtonWindow = true
	return []core.DesignSpec{devIDDesign(), strict}
}

// TestTypedStatusApplyMatchesGenericApply: the typed status apply is an
// optimisation of the generic one, not a second reading of the format.
// Every record form leaves the same snapshot through both, and a record
// cut short anywhere, or followed by a stray byte, is refused by both.
func TestTypedStatusApplyMatchesGenericApply(t *testing.T) {
	for _, design := range applyDesigns() {
		t.Run(design.Name, func(t *testing.T) {
			p := newApplyPair(t, design)
			forms := statusRecordForms(t)
			for _, payload := range forms {
				if !p.apply(t, payload) {
					t.Errorf("well-formed record %x refused", payload)
				}
			}
			for _, payload := range forms {
				for cut := 1; cut < len(payload); cut++ {
					if p.apply(t, payload[:cut]) {
						t.Errorf("record %x accepted cut to %d bytes", payload, cut)
					}
				}
				if p.apply(t, append(append([]byte(nil), payload...), 0)) {
					t.Errorf("record %x accepted with a trailing byte", payload)
				}
			}
			if snap := p.typed.Snapshot(); len(snap.Shadows) == 0 {
				t.Error("the applied records left no shadow to compare")
			}
		})
	}
}

// FuzzApplyStatusRecord holds the two apply paths to one verdict and one
// snapshot on arbitrary status record bodies. State accumulates across
// inputs within a worker, so later inputs meet filled idempotency logs
// and reading buffers.
func FuzzApplyStatusRecord(f *testing.F) {
	for _, payload := range statusRecordForms(f) {
		f.Add(payload)
	}
	var pairs []*applyPair
	for _, design := range applyDesigns() {
		pairs = append(pairs, newApplyPair(f, design))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) == 0 || payload[0] != wirecodec.TagStatus {
			payload = append([]byte{wirecodec.TagStatus}, payload...)
		}
		for _, p := range pairs {
			p.apply(t, payload)
		}
	})
}
