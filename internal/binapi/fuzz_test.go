package binapi

import (
	"bytes"
	"testing"

	"github.com/iotbind/iotbind/internal/protocol"
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

// FuzzWireFrameDecode throws arbitrary bytes at both ends of the binary
// protocol: the server-side parser (frame splitting, credit
// enforcement, status/batch/JSON body decoding) and the client-side mux
// decoder (stream routing, hello handling, response decoding). Neither
// may panic, and the server parser must never report more consumed
// bytes than it was given — corrupt input costs at most the connection.
func FuzzWireFrameDecode(f *testing.F) {
	status := fuzzStatusPayload()
	f.Add(fuzzFrame(1, kindStatus, 0, status))
	f.Add(fuzzFrame(1, kindStatus, 0, status)[:7]) // truncated mid-header
	f.Add(fuzzFrame(2, kindStatus, flagResponse, status))
	f.Add(fuzzFrame(3, kindBatch, 0, []byte{0, 1}))
	f.Add(fuzzFrame(4, kindJSON, 0, []byte(`{"op":"shadow","payload":{}}`)))
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
		c := &conn{srv: srv, src: "203.0.113.9", flush: func([]byte) error { return nil }}
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
