package wirecodec

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/protocol"
)

const testDevice = "AA:BB:CC:00:00:01"

func TestStatusRecordRoundTrip(t *testing.T) {
	at := time.Date(2026, 7, 6, 12, 0, 1, 500, time.UTC)
	req := &protocol.StatusRequest{
		Kind:           protocol.StatusRegister,
		DeviceID:       testDevice,
		DevToken:       "devtok",
		Signature:      "sig",
		SessionToken:   "sess",
		DataProof:      "proof",
		ButtonPressed:  true,
		Firmware:       "1.2",
		Model:          "plug",
		IdempotencyKey: "k1",
		SourceIP:       "10.0.0.7",
		Readings: []protocol.Reading{
			{Name: "power_w", Value: 3.25, At: at},
			{Name: "temp_c", Value: -1.5, At: time.Time{}},
		},
	}
	var buf bytes.Buffer
	EncodeStatusRecord(&buf, at, req)
	rec, err := DecodeRecord(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !rec.At.Equal(at) {
		t.Errorf("at = %v, want %v", rec.At, at)
	}
	if !reflect.DeepEqual(rec.Req, *req) {
		t.Errorf("round trip:\n got %+v\nwant %+v", rec.Req, *req)
	}
}

func TestBatchRecordRoundTrip(t *testing.T) {
	at := time.Date(2026, 7, 6, 12, 0, 2, 0, time.UTC)
	req := &protocol.StatusBatchRequest{
		SourceIP: "10.0.0.9",
		Items: []protocol.StatusRequest{
			{Kind: protocol.StatusHeartbeat, DeviceID: testDevice, IdempotencyKey: "a"},
			{Kind: protocol.StatusRegister, DeviceID: testDevice, SourceIP: "10.0.0.3",
				Readings: []protocol.Reading{{Name: "power_w", Value: 1, At: at}}},
		},
	}
	var buf bytes.Buffer
	EncodeBatchRecord(&buf, at, req)
	rec, err := DecodeRecord(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec.Req, *req) {
		t.Errorf("round trip:\n got %+v\nwant %+v", rec.Req, *req)
	}
}

// TestTruncationIsError proves every truncation of a valid binary
// record decodes to an error, never a panic or a silent partial
// request.
func TestTruncationIsError(t *testing.T) {
	at := time.Date(2026, 7, 6, 12, 0, 3, 0, time.UTC)
	var buf bytes.Buffer
	EncodeStatusRecord(&buf, at, &protocol.StatusRequest{
		Kind: protocol.StatusHeartbeat, DeviceID: testDevice, IdempotencyKey: "k",
		Readings: []protocol.Reading{{Name: "power_w", Value: 2, At: at}},
	})
	full := buf.Bytes()
	for n := 0; n < len(full); n++ {
		if _, err := DecodeRecord(full[:n]); err == nil {
			t.Errorf("truncation to %d bytes decoded without error", n)
		}
	}
	if _, err := DecodeRecord(append(append([]byte(nil), full...), 0xFF)); err == nil {
		t.Error("trailing garbage decoded without error")
	}
}

// TestLivenessRoundTrip covers the liveness record: the coalesced
// bare-heartbeat effect flushed ahead of logged records.
func TestLivenessRoundTrip(t *testing.T) {
	at := time.Date(2026, 7, 6, 12, 0, 4, 250, time.UTC)
	var buf bytes.Buffer
	EncodeLivenessRecord(&buf, at, testDevice, "victim@example.com")
	rec, err := DecodeRecord(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if want := (Liveness{DeviceID: testDevice, Owner: "victim@example.com"}); !rec.At.Equal(at) || rec.Req != want {
		t.Errorf("round trip = %v %+v, want %v %+v", rec.At, rec.Req, at, want)
	}
	full := buf.Bytes()
	for n := 0; n < len(full); n++ {
		if _, err := DecodeRecord(full[:n]); err == nil {
			t.Errorf("truncation to %d bytes decoded without error", n)
		}
	}
}

// TestHugeCountsRejected pins the decoder's allocation bound: a crafted
// record claiming more items than its remaining bytes could possibly
// hold must be rejected before the count sizes an allocation — WAL
// recovery, walinspect and the wire front end all read foreign bytes.
func TestHugeCountsRejected(t *testing.T) {
	at := time.Date(2026, 7, 6, 12, 0, 5, 0, time.UTC)

	var status bytes.Buffer
	PutU8(&status, TagStatus)
	PutI64(&status, at.UnixNano())
	PutU8(&status, uint8(protocol.StatusHeartbeat))
	for i := 0; i < 9; i++ { // device ID through source IP, all empty
		PutStr(&status, "")
	}
	PutU8(&status, 0)                  // button
	PutUvarint(&status, uint64(1)<<40) // readings "count" with no bytes behind it
	if _, err := DecodeRecord(status.Bytes()); !errors.Is(err, protocol.ErrBadRequest) {
		t.Errorf("huge readings count decoded to %v, want ErrBadRequest", err)
	}

	var batch bytes.Buffer
	PutU8(&batch, TagBatch)
	PutI64(&batch, at.UnixNano())
	PutStr(&batch, "") // envelope source IP
	PutUvarint(&batch, uint64(1)<<40)
	if _, err := DecodeRecord(batch.Bytes()); !errors.Is(err, protocol.ErrBadRequest) {
		t.Errorf("huge batch item count decoded to %v, want ErrBadRequest", err)
	}
}

// TestStatusResponseRoundTrip covers the wire-only response body,
// including deterministic arg-map encoding and the zero-value fast
// path.
func TestStatusResponseRoundTrip(t *testing.T) {
	cases := []protocol.StatusResponse{
		{},
		{Bound: true, SessionNonce: "nonce-1"},
		{
			Bound: true,
			Commands: []protocol.Command{
				{ID: "c1", Name: "turn_on"},
				{ID: "c2", Name: "set", Args: map[string]string{"level": "7", "mode": "eco"}},
			},
			UserData: []protocol.UserData{{Kind: "schedule", Body: "09:00 on"}},
		},
	}
	for i, resp := range cases {
		var buf bytes.Buffer
		PutStatusResponse(&buf, &resp)
		c := NewCursor(buf.Bytes(), 0)
		got := ReadStatusResponse(c)
		if !c.Done() {
			t.Fatalf("case %d: cursor not done (err=%v)", i, c.Err())
		}
		if !reflect.DeepEqual(got, resp) {
			t.Errorf("case %d round trip:\n got %+v\nwant %+v", i, got, resp)
		}
		for n := 1; n < buf.Len(); n++ {
			tc := NewCursor(buf.Bytes()[:n], 0)
			ReadStatusResponse(tc)
			if tc.Done() {
				t.Errorf("case %d: truncation to %d bytes read cleanly", i, n)
			}
		}
	}
}

// TestResponseHugeCountsRejected extends the allocation bound to the
// response decoder: command and user-data counts are checked against
// remaining bytes before sizing slices.
func TestResponseHugeCountsRejected(t *testing.T) {
	var buf bytes.Buffer
	PutU8(&buf, 1)   // bound
	PutStr(&buf, "") // nonce
	PutUvarint(&buf, uint64(1)<<40)
	c := NewCursor(buf.Bytes(), 0)
	ReadStatusResponse(c)
	if c.Err() == nil {
		t.Error("huge command count read without error")
	}
}

// TestDescribeRecord pins the walinspect dump format survives the move
// into wirecodec.
func TestDescribeRecord(t *testing.T) {
	at := time.Date(2026, 7, 6, 12, 0, 6, 0, time.UTC)
	var buf bytes.Buffer
	EncodeStatusRecord(&buf, at, &protocol.StatusRequest{
		Kind: protocol.StatusHeartbeat, DeviceID: testDevice,
		Readings: []protocol.Reading{{Name: "power_w", Value: 1, At: at}},
	})
	desc, err := DescribeRecord(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := "2026-07-06T12:00:06Z status heartbeat device=" + testDevice + " keyed=false readings=1"
	if desc != want {
		t.Errorf("describe = %q, want %q", desc, want)
	}
	if _, err := DescribeRecord([]byte{0x77}); err == nil {
		t.Error("unknown tag described without error")
	}
}

// TestRecordBytesPinned: a record is tag + time + the wire body the
// operation's Put*Body function writes, pinned byte for byte. The first
// six literals are the record forms that predate the binary cold lane
// (taken from the commits before each encoder was last touched): logs
// written then decode alike now. The other eight were JSON envelopes
// before; their literals pin the forms they were given.
func TestRecordBytesPinned(t *testing.T) {
	at := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	status := protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: "dev-1", DevToken: "dt", Signature: "sg",
		SessionToken: "st", DataProof: "dp", ButtonPressed: true, Firmware: "1.0", Model: "m", IdempotencyKey: "hb-1",
		SourceIP: "203.0.113.7", Readings: []protocol.Reading{{Name: "power_w", Value: 4.5, At: at}}}
	batch := protocol.StatusBatchRequest{SourceIP: "203.0.113.7", Items: []protocol.StatusRequest{
		{Kind: protocol.StatusHeartbeat, DeviceID: "dev-1", IdempotencyKey: "hb-1",
			Readings: []protocol.Reading{{Name: "power_w", Value: 4.5, At: at}}},
		{Kind: protocol.StatusRegister, DeviceID: "dev-2", Firmware: "1.0", Model: "m", SourceIP: "198.51.100.66"},
	}}
	for _, tc := range []pinnedRecord{
		{"status", func(b *bytes.Buffer) { EncodeStatusRecord(b, at, &status) },
			"01008007ca8db1bf1802056465762d310264740273670273740264700468622d3103312e30016d0b3230332e302e3131332e37010107706f7765725f770000000000001240008007ca8db1bf18",
			status},
		{"status_batch", func(b *bytes.Buffer) { EncodeBatchRecord(b, at, &batch) },
			"02008007ca8db1bf180b3230332e302e3131332e370202056465762d31000000000468622d31000000000107706f7765725f770000000000001240008007ca8db1bf1801056465762d32000000000003312e30016d0d3139382e35312e3130302e36360000",
			batch},
		{"liveness", func(b *bytes.Buffer) { EncodeLivenessRecord(b, at, "dev-1", "owner@x") },
			"03008007ca8db1bf18056465762d31076f776e65724078",
			Liveness{DeviceID: "dev-1", Owner: "owner@x"}},
		pin("delegate", TagDelegate, at, PutDelegateBody, protocol.DelegateRequest{DeviceID: "dev-1", UserToken: "tok", Grantee: "g@x",
			Scopes: []string{"control", "read"}, TTLSeconds: 3600, Depth: 1, IdempotencyKey: "k1"},
			"04008007ca8db1bf18056465762d3103746f6b036740780207636f6e74726f6c0472656164100e0000000000000100000000000000026b31"),
		pin("revoke_delegation", TagRevokeDelegation, at, PutRevokeDelegationBody,
			protocol.RevokeDelegationRequest{DeviceID: "dev-1", UserToken: "tok", Grantee: "g@x", IdempotencyKey: "k2"},
			"05008007ca8db1bf18056465762d3103746f6b03674078026b32"),
		pin("share", TagShare, at, PutShareBody,
			protocol.ShareRequest{DeviceID: "dev-1", UserToken: "tok", Guest: "guest@x", Revoke: true},
			"06008007ca8db1bf18056465762d3103746f6b076775657374407801"),
		pin("register_user", TagRegisterUser, at, PutRegisterUserBody,
			protocol.RegisterUserRequest{UserID: "u@x", Password: "pw"},
			"07008007ca8db1bf1803754078027077"),
		pin("login", TagLogin, at, PutLoginBody,
			protocol.LoginRequest{UserID: "u@x", Password: "pw"},
			"08008007ca8db1bf1803754078027077"),
		pin("device_token", TagDeviceToken, at, PutDeviceTokenBody,
			protocol.DeviceTokenRequest{UserToken: "tok", DeviceID: "dev-1", PairingProof: "proof"},
			"09008007ca8db1bf1803746f6b056465762d310570726f6f66"),
		pin("bind_token", TagBindToken, at, PutBindTokenBody,
			protocol.BindTokenRequest{UserToken: "tok", DeviceID: "dev-1"},
			"0a008007ca8db1bf1803746f6b056465762d31"),
		pin("bind", TagBind, at, PutBindBody, protocol.BindRequest{DeviceID: "dev-1", UserToken: "tok", UserID: "u@x",
			UserPassword: "pw", BindToken: "bt", BindProof: "bp", Sender: core.SenderApp, IdempotencyKey: "k3", SourceIP: "203.0.113.7"},
			"0b008007ca8db1bf18056465762d3103746f6b037540780270770262740262700200000000000000026b330b3230332e302e3131332e37"),
		pin("unbind", TagUnbind, at, PutUnbindBody, protocol.UnbindRequest{DeviceID: "dev-1", UserToken: "tok",
			Sender: core.SenderDevice, IdempotencyKey: "k4", SourceIP: "203.0.113.7"},
			"0c008007ca8db1bf18056465762d3103746f6b0100000000000000026b340b3230332e302e3131332e37"),
		pin("control", TagControl, at, PutControlBody, protocol.ControlRequest{DeviceID: "dev-1", UserToken: "tok", SessionToken: "st",
			Command: protocol.Command{ID: "c1", Name: "set", Args: map[string]string{"mode": "eco", "level": "7"}}, SourceIP: "203.0.113.7"},
			"0d008007ca8db1bf18056465762d3103746f6b0273740263310373657402056c6576656c0137046d6f64650365636f0b3230332e302e3131332e37"),
		pin("push", TagUserData, at, PutUserDataBody, protocol.PushUserDataRequest{DeviceID: "dev-1", UserToken: "tok",
			Data: protocol.UserData{Kind: "schedule", Body: "09:00 on"}},
			"0e008007ca8db1bf18056465762d3103746f6b087363686564756c650830393a3030206f6e"),
	} {
		var b bytes.Buffer
		tc.encode(&b)
		if got := hex.EncodeToString(b.Bytes()); got != tc.want {
			t.Errorf("%s record bytes changed:\n got  %s\n want %s", tc.name, got, tc.want)
		}
		raw, err := hex.DecodeString(tc.want)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := DecodeRecord(raw)
		if err != nil {
			t.Errorf("%s: decode pinned bytes: %v", tc.name, err)
			continue
		}
		if !rec.At.Equal(at) || !reflect.DeepEqual(rec.Req, tc.req) {
			t.Errorf("%s: pinned bytes decode at %v to %+v", tc.name, rec.At, rec.Req)
		}
		if desc, _ := DescribeRecord(raw); !strings.HasPrefix(desc, "2026-07-06T12:00:00Z "+tc.name+" ") {
			t.Errorf("%s: pinned bytes describe as %q", tc.name, desc)
		}
	}
}

// pinnedRecord is one TestRecordBytesPinned row.
type pinnedRecord struct {
	name   string // the operation as DescribeRecord names it
	encode func(*bytes.Buffer)
	want   string
	req    any
}

// pin is the row for a cold operation's record.
func pin[Req any](name string, tag uint8, at time.Time, put func(*bytes.Buffer, Req), req Req, want string) pinnedRecord {
	return pinnedRecord{name, func(b *bytes.Buffer) { EncodeRecord(b, tag, at, put, req) }, want, req}
}
