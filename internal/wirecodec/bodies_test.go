package wirecodec

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/protocol"
)

// bodyPair is one Put*/Read* pair behind type-erased checks, so the
// round-trip table and the body fuzzer walk the same list.
type bodyPair struct {
	name string
	// roundTrip encodes the pair's all-fields-set value and its zero
	// value and requires each back (the zero value as empty).
	roundTrip func(t *testing.T)
	// decode feeds arbitrary bytes to the pair's decoder.
	decode func(t *testing.T, data []byte)
	// seed is the all-fields-set value's encoding.
	seed []byte
}

// pair builds the checks for one body. empty is what the zero value
// decodes to: the zero value itself, but for the three responses whose
// list JSON always carries, which decode it empty and non-nil.
func pair[T any](name string, put func(*bytes.Buffer, T), read func(*Cursor) T, full, empty T) bodyPair {
	encode := func(v T) []byte {
		var b bytes.Buffer
		put(&b, v)
		return b.Bytes()
	}
	var zero T
	return bodyPair{
		name: name,
		seed: encode(full),
		roundTrip: func(t *testing.T) {
			for _, tc := range []struct{ in, want T }{{full, full}, {zero, empty}, {empty, empty}} {
				raw := encode(tc.in)
				c := NewCursor(raw, 0)
				if got := read(c); !c.Done() || !reflect.DeepEqual(got, tc.want) {
					t.Errorf("%s round trip (done %t, err %v):\n got %+v\nwant %+v", name, c.Done(), c.Err(), got, tc.want)
				}
				for n := 0; n < len(raw); n++ {
					if c := NewCursor(raw[:n], 0); func() bool { read(c); return c.Done() }() {
						t.Errorf("%s: truncation of %+v to %d of %d bytes read cleanly", name, tc.in, n, len(raw))
					}
				}
				if c := NewCursor(append(raw[:len(raw):len(raw)], 0), 0); func() bool { read(c); return c.Done() }() {
					t.Errorf("%s: a trailing byte after %+v read cleanly", name, tc.in)
				}
			}
		},
		decode: func(t *testing.T, data []byte) {
			c := NewCursor(data, 0)
			got := read(c)
			// Whatever Count admitted fits in the input: no decoder may
			// have sized a list by a count the bytes could not hold.
			if n := items(reflect.ValueOf(got)); n > len(data) {
				t.Fatalf("%s decoded %d list items from %d bytes", name, n, len(data))
			}
			// A canonicaliser changes where a string is stored, never what
			// the body decodes to. (A NaN reading is not DeepEqual to
			// itself; the same bits print the same.)
			hc := NewCursor(data, 0)
			hc.SetCanonical(heldHook)
			held := read(hc)
			if hc.Done() != c.Done() || fmt.Sprint(hc.Err()) != fmt.Sprint(c.Err()) ||
				!reflect.DeepEqual(held, got) && fmt.Sprintf("%#v", held) != fmt.Sprintf("%#v", got) {
				t.Fatalf("%s decodes differently through a canonicaliser (done %t/%t, err %v/%v):\n%+v\n%+v",
					name, hc.Done(), c.Done(), hc.Err(), c.Err(), held, got)
			}
			if !c.Done() {
				return
			}
			// Accepted: it re-encodes to bytes that decode cleanly and
			// re-encode to themselves. (The input itself may use non-minimal
			// varints or any nonzero byte for true, and a NaN reading is
			// not DeepEqual to itself, so bytes are what is compared.)
			canon := encode(got)
			back := NewCursor(canon, 0)
			if again := encode(read(back)); !back.Done() || !bytes.Equal(canon, again) {
				t.Fatalf("%s: accepted value %+v does not survive re-encoding (done %t):\n%x\n%x", name, got, back.Done(), canon, again)
			}
		},
	}
}

// heldTable is what heldHook holds, by kind: bodyPairs' own device ID,
// token, accounts and reading and command names, a prefix and an
// extension of each, and the empty string. Each entry is its own
// allocation, so a hit hands back a string the input does not alias.
var heldTable = func() map[protocol.Held]map[string]string {
	table := map[protocol.Held]map[string]string{}
	for kind, held := range map[protocol.Held][]string{
		protocol.HeldDevice:  {testDevice},
		protocol.HeldCred:    {"tok", "d"},
		protocol.HeldAccount: {"u@x", "g@x", "h@x"},
		protocol.HeldName:    {"power_w", "temp_c", "set", "turn_on"},
	} {
		table[kind] = map[string]string{"": ""}
		for _, s := range held {
			for _, v := range []string{s, s[:len(s)-1], s + "0"} {
				table[kind][v] = strings.Clone(v)
			}
		}
	}
	return table
}()

// heldHook canonicalises through heldTable: the table's own string on an
// exact match, a copy of raw otherwise.
func heldHook(kind protocol.Held, raw []byte) string {
	if s, ok := heldTable[kind][string(raw)]; ok {
		return s
	}
	return string(raw)
}

// items counts the elements of every slice and map inside v.
func items(v reflect.Value) int {
	n := 0
	switch v.Kind() {
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice {
			n = v.Len()
		}
		for i := 0; i < v.Len(); i++ {
			n += items(v.Index(i))
		}
	case reflect.Map:
		n = v.Len()
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(time.Time{}) {
			return 0
		}
		for i := 0; i < v.NumField(); i++ {
			n += items(v.Field(i))
		}
	}
	return n
}

// bodyPairs lists every request and response body: sixteen requests,
// the eleven responses that carry data, and the command they share.
func bodyPairs() []bodyPair {
	at := time.Date(2026, 7, 6, 12, 0, 0, 250, time.UTC)
	cmd := protocol.Command{ID: "c1", Name: "set", Args: map[string]string{"level": "7", "mode": "eco"}}
	status := protocol.StatusRequest{
		Kind: protocol.StatusRegister, DeviceID: testDevice, DevToken: "devtok", Signature: "sig",
		SessionToken: "sess", DataProof: "proof", ButtonPressed: true, Firmware: "1.2", Model: "plug",
		Readings:       []protocol.Reading{{Name: "power_w", Value: 3.25, At: at}, {Name: "temp_c", Value: -1.5}},
		IdempotencyKey: "k1", SourceIP: "10.0.0.7",
	}
	statusResp := protocol.StatusResponse{
		Bound: true, SessionNonce: "nonce-1",
		Commands: []protocol.Command{{ID: "c0", Name: "turn_on"}, cmd},
		UserData: []protocol.UserData{{Kind: "schedule", Body: "09:00 on"}},
	}
	return []bodyPair{
		pair("register-user", PutRegisterUserBody, ReadRegisterUserBody,
			protocol.RegisterUserRequest{UserID: "u@x", Password: "pw"}, protocol.RegisterUserRequest{}),
		pair("login", PutLoginBody, ReadLoginBody,
			protocol.LoginRequest{UserID: "u@x", Password: "pw"}, protocol.LoginRequest{}),
		pair("login response", PutLoginResponse, ReadLoginResponse,
			protocol.LoginResponse{UserToken: "tok"}, protocol.LoginResponse{}),
		pair("device-token", PutDeviceTokenBody, ReadDeviceTokenBody,
			protocol.DeviceTokenRequest{UserToken: "tok", DeviceID: testDevice, PairingProof: "proof"}, protocol.DeviceTokenRequest{}),
		pair("device-token response", PutDeviceTokenResponse, ReadDeviceTokenResponse,
			protocol.DeviceTokenResponse{DevToken: "devtok"}, protocol.DeviceTokenResponse{}),
		pair("bind-token", PutBindTokenBody, ReadBindTokenBody,
			protocol.BindTokenRequest{UserToken: "tok", DeviceID: testDevice}, protocol.BindTokenRequest{}),
		pair("bind-token response", PutBindTokenResponse, ReadBindTokenResponse,
			protocol.BindTokenResponse{BindToken: "bt"}, protocol.BindTokenResponse{}),
		pair("status", func(b *bytes.Buffer, r protocol.StatusRequest) { PutStatusBody(b, &r) }, ReadStatusBody,
			status, protocol.StatusRequest{}),
		pair("status response", func(b *bytes.Buffer, r protocol.StatusResponse) { PutStatusResponse(b, &r) }, ReadStatusResponse,
			statusResp, protocol.StatusResponse{}),
		pair("command", func(b *bytes.Buffer, r protocol.Command) { putCommand(b, &r) }, readCommand, cmd, protocol.Command{}),
		pair("bind", PutBindBody, ReadBindBody,
			protocol.BindRequest{DeviceID: testDevice, UserToken: "tok", UserID: "u@x", UserPassword: "pw", BindToken: "bt",
				BindProof: "bp", Sender: core.SenderApp, IdempotencyKey: "k", SourceIP: "10.0.0.7"},
			protocol.BindRequest{}),
		pair("bind response", PutBindResponse, ReadBindResponse,
			protocol.BindResponse{BoundUser: "u@x", SessionToken: "sess"}, protocol.BindResponse{}),
		pair("unbind", PutUnbindBody, ReadUnbindBody,
			protocol.UnbindRequest{DeviceID: testDevice, UserToken: "tok", Sender: core.Sender(-300), IdempotencyKey: "k", SourceIP: "10.0.0.7"},
			protocol.UnbindRequest{}),
		pair("control", PutControlBody, ReadControlBody,
			protocol.ControlRequest{DeviceID: testDevice, UserToken: "tok", SessionToken: "sess", Command: cmd, SourceIP: "10.0.0.7"},
			protocol.ControlRequest{}),
		pair("control response", PutControlResponse, ReadControlResponse,
			protocol.ControlResponse{Queued: true}, protocol.ControlResponse{}),
		pair("user-data", PutUserDataBody, ReadUserDataBody,
			protocol.PushUserDataRequest{DeviceID: testDevice, UserToken: "tok", Data: protocol.UserData{Kind: "schedule", Body: "09:00 on"}},
			protocol.PushUserDataRequest{}),
		pair("readings", PutReadingsBody, ReadReadingsBody,
			protocol.ReadingsRequest{DeviceID: testDevice, UserToken: "tok"}, protocol.ReadingsRequest{}),
		pair("readings response", PutReadingsResponse, ReadReadingsResponse,
			protocol.ReadingsResponse{Readings: status.Readings}, protocol.ReadingsResponse{Readings: []protocol.Reading{}}),
		pair("share", PutShareBody, ReadShareBody,
			protocol.ShareRequest{DeviceID: testDevice, UserToken: "tok", Guest: "g@x", Revoke: true}, protocol.ShareRequest{}),
		pair("shares", PutSharesBody, ReadSharesBody,
			protocol.SharesRequest{DeviceID: testDevice, UserToken: "tok"}, protocol.SharesRequest{}),
		pair("shares response", PutSharesResponse, ReadSharesResponse,
			protocol.SharesResponse{Guests: []string{"g@x", "h@x"}}, protocol.SharesResponse{Guests: []string{}}),
		pair("delegate", PutDelegateBody, ReadDelegateBody,
			protocol.DelegateRequest{DeviceID: testDevice, UserToken: "tok", Grantee: "g@x", Scopes: []string{"control", "read"},
				TTLSeconds: 3600, Depth: 2, IdempotencyKey: "k"},
			protocol.DelegateRequest{}),
		pair("delegate response", PutDelegateResponse, ReadDelegateResponse,
			protocol.DelegateResponse{DelegationToken: "d", ExpiresAt: at}, protocol.DelegateResponse{}),
		pair("revoke-delegation", PutRevokeDelegationBody, ReadRevokeDelegationBody,
			protocol.RevokeDelegationRequest{DeviceID: testDevice, UserToken: "tok", Grantee: "g@x", IdempotencyKey: "k"},
			protocol.RevokeDelegationRequest{}),
		pair("delegations", PutDelegationsBody, ReadDelegationsBody,
			protocol.ListDelegationsRequest{DeviceID: testDevice, UserToken: "tok"}, protocol.ListDelegationsRequest{}),
		pair("delegations response", PutDelegationsResponse, ReadDelegationsResponse,
			protocol.ListDelegationsResponse{Grants: []protocol.DelegationInfo{
				{Grantor: "u@x", Grantee: "g@x", Scopes: []string{"control", "read"}, ExpiresAt: at, Depth: 1},
				{Grantor: "g@x", Grantee: "h@x", Scopes: []string{}},
			}},
			protocol.ListDelegationsResponse{Grants: []protocol.DelegationInfo{}}),
		pair("shadow", PutShadowBody, ReadShadowBody,
			protocol.ShadowStateRequest{DeviceID: testDevice}, protocol.ShadowStateRequest{}),
		pair("shadow response", PutShadowResponse, ReadShadowResponse,
			protocol.ShadowStateResponse{State: core.StateControl, BoundUser: "u@x"}, protocol.ShadowStateResponse{}),
	}
}

// TestBodyRoundTrip walks every Put*/Read* pair with every field set and
// with every field empty: each decodes back to what was encoded, every
// truncation and any trailing byte is refused.
func TestBodyRoundTrip(t *testing.T) {
	for _, p := range bodyPairs() {
		p.roundTrip(t)
	}
}
