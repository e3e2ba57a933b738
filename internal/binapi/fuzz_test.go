package binapi

import (
	"bytes"
	"testing"

	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/transport"
	"github.com/iotbind/iotbind/internal/wirecodec"
)

// fuzzFrame builds one framed message for the seed corpus.
func fuzzFrame(stream uint32, kind uint8, flags uint8, payload []byte) []byte {
	return appendFrame(nil, stream, kind, flags, payload)
}

// fuzzStatusPayload encodes a well-formed status body.
func fuzzStatusPayload() []byte {
	var buf bytes.Buffer
	req := protocol.StatusRequest{
		Kind:     protocol.StatusHeartbeat,
		DeviceID: testDeviceID(0),
		Firmware: "1.0",
		Readings: []protocol.Reading{{Name: "temperature_c", Value: 21.5}},
	}
	wirecodec.PutStatusBody(&buf, &req)
	return buf.Bytes()
}

// fuzzBody encodes one request body with the row's own put func.
func fuzzBody[Req any](put func(*bytes.Buffer, Req), req Req) []byte {
	var buf bytes.Buffer
	put(&buf, req)
	return buf.Bytes()
}

// fuzzColdFrames is one well-formed request frame of every kind the
// rows in ops.go serve.
func fuzzColdFrames() [][]byte {
	id, tok := testDeviceID(0), "tok"
	bodies := map[uint8][]byte{
		wirecodec.TagRegisterUser: fuzzBody(rowRegisterUser.putReq, protocol.RegisterUserRequest{UserID: "u@x", Password: "pw"}),
		wirecodec.TagLogin:        fuzzBody(rowLogin.putReq, protocol.LoginRequest{UserID: "u@x", Password: "pw"}),
		wirecodec.TagDeviceToken:  fuzzBody(rowDeviceToken.putReq, protocol.DeviceTokenRequest{UserToken: tok, DeviceID: id, PairingProof: "p"}),
		wirecodec.TagBindToken:    fuzzBody(rowBindToken.putReq, protocol.BindTokenRequest{UserToken: tok, DeviceID: id}),
		wirecodec.TagBind: fuzzBody(rowBind.putReq, protocol.BindRequest{
			DeviceID: id, UserID: "u@x", UserPassword: "pw", Sender: core.SenderApp, IdempotencyKey: "k"}),
		wirecodec.TagUnbind: fuzzBody(rowUnbind.putReq, protocol.UnbindRequest{DeviceID: id, Sender: core.SenderDevice}),
		wirecodec.TagControl: fuzzBody(rowControl.putReq, protocol.ControlRequest{
			DeviceID: id, UserToken: tok, Command: protocol.Command{ID: "c", Name: "on", Args: map[string]string{"level": "7"}}}),
		wirecodec.TagUserData: fuzzBody(rowUserData.putReq, protocol.PushUserDataRequest{
			DeviceID: id, UserToken: tok, Data: protocol.UserData{Kind: "schedule", Body: "09:00 on"}}),
		kindReadings:       fuzzBody(rowReadings.putReq, protocol.ReadingsRequest{DeviceID: id, UserToken: tok}),
		wirecodec.TagShare: fuzzBody(rowShare.putReq, protocol.ShareRequest{DeviceID: id, UserToken: tok, Guest: "g@x"}),
		kindShares:         fuzzBody(rowShares.putReq, protocol.SharesRequest{DeviceID: id, UserToken: tok}),
		wirecodec.TagDelegate: fuzzBody(rowDelegate.putReq, protocol.DelegateRequest{
			DeviceID: id, UserToken: tok, Grantee: "g@x", Scopes: []string{"read"}, TTLSeconds: 60}),
		wirecodec.TagRevokeDelegation: fuzzBody(rowRevokeDelegation.putReq, protocol.RevokeDelegationRequest{
			DeviceID: id, UserToken: tok, Grantee: "g@x"}),
		kindDelegations: fuzzBody(rowDelegations.putReq, protocol.ListDelegationsRequest{DeviceID: id, UserToken: tok}),
		kindShadow:      fuzzBody(rowShadow.putReq, protocol.ShadowStateRequest{DeviceID: id}),
	}
	var frames [][]byte
	for kind := 0; kind < len(kinds); kind++ { // table order, so the corpus is stable
		if body, ok := bodies[uint8(kind)]; ok {
			frames = append(frames, fuzzFrame(uint32(9+kind), uint8(kind), 0, body))
		}
	}
	return frames
}

// FuzzWireFrameDecode throws arbitrary bytes at both ends of the binary
// protocol: the server-side parser (frame splitting, credit
// enforcement, the body decoder of every kind) and the client-side mux
// decoder (stream routing, hello handling, error frames). Neither
// may panic, and the server parser must never report more consumed
// bytes than it was given — corrupt input costs at most the connection.
func FuzzWireFrameDecode(f *testing.F) {
	status := fuzzStatusPayload()
	f.Add(fuzzFrame(1, kindStatus, 0, status))
	f.Add(fuzzFrame(1, kindStatus, 0, status)[:7]) // truncated mid-header
	f.Add(fuzzFrame(2, kindStatus, flagResponse, status))
	f.Add(fuzzFrame(3, kindBatch, 0, []byte{0, 1}))
	for _, frame := range fuzzColdFrames() {
		f.Add(frame)
	}
	f.Add(fuzzFrame(5, kindError, flagResponse, []byte{2, 'n', 'o'}))
	f.Add((&Server{opts: defaultOptions()}).helloFrame())
	f.Add(fuzzFrame(6, 0x7F, 0, nil)) // unknown kind
	crcFlipped := fuzzFrame(7, kindStatus, 0, status)
	crcFlipped[4] ^= 0xFF
	f.Add(crcFlipped)
	oversized := fuzzFrame(8, kindStatus, 0, status)
	oversized[0], oversized[1], oversized[2], oversized[3] = 0xFF, 0xFF, 0xFF, 0x7F
	f.Add(oversized)

	svc := newLabService(f, 2)
	srv := &Server{cloud: svc, opts: defaultOptions()}
	helloFrame := srv.helloFrame()

	f.Fuzz(func(t *testing.T, data []byte) {
		// Server side: a standalone worker (no goroutine) parsing the
		// input as one inbound burst on a fresh connection.
		w := &worker{srv: srv}
		c := &conn{srv: srv, cloud: transport.StampSource(svc, "203.0.113.9"), flush: func([]byte) error { return nil }}
		consumed, _ := w.process(c, data)
		if consumed < 0 || consumed > len(data) {
			t.Fatalf("process consumed %d of %d bytes", consumed, len(data))
		}

		// Client side: same bytes through the mux decoder, after a
		// valid hello so the slot table exists.
		cl := newClient(srv.opts)
		cl.write = func([]byte) error { return nil }
		if err := cl.feed(helloFrame); err != nil {
			t.Fatalf("hello rejected: %v", err)
		}
		_ = cl.feed(data)

		// And cold: hello-less clients must survive arbitrary greetings.
		raw := newClient(srv.opts)
		raw.write = func([]byte) error { return nil }
		_ = raw.feed(data)
	})
}
