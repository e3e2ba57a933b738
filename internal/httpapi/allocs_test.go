package httpapi

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/transport"
)

// nullResponseWriter discards the body; the header map is preallocated so
// repeated runs measure the codec, not first-use map growth.
type nullResponseWriter struct{ h http.Header }

func (w nullResponseWriter) Header() http.Header         { return w.h }
func (w nullResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w nullResponseWriter) WriteHeader(int)             {}

func statusResponseFixture() protocol.StatusResponse {
	return protocol.StatusResponse{
		Commands: []protocol.Command{{ID: "c1", Name: "turn_on"}},
		UserData: []protocol.UserData{{Kind: "schedule", Body: "on 08:00 off 22:00"}},
	}
}

// TestStatusEncodeAllocations pins the pooled encode path: serializing a
// status response must stay within a small constant allocation budget
// instead of regressing to per-call buffer and encoder construction.
func TestStatusEncodeAllocations(t *testing.T) {
	w := nullResponseWriter{h: make(http.Header)}
	resp := statusResponseFixture()

	avg := testing.AllocsPerRun(200, func() {
		respond(w, resp, nil)
	})
	// Measured ~2 (interface boxing + encoder internals); 10 leaves slack
	// while still catching a return to one-json.Marshal-per-call (which
	// also buffers the whole body a second time).
	if avg > 10 {
		t.Errorf("status encode = %.1f allocs/op, want <= 10", avg)
	}
}

// sink is a cloud that answers a status with the zero response; every
// other method panics through the nil embedded interface.
type sink struct{ transport.Cloud }

func (sink) HandleStatus(protocol.StatusRequest) (protocol.StatusResponse, error) {
	return protocol.StatusResponse{}, nil
}

// TestStatusDecodeAllocations pins the pooled decode path: draining a
// status request, unmarshaling it through the operation table's row and
// answering it must not regress to io.ReadAll-per-call growth.
func TestStatusDecodeAllocations(t *testing.T) {
	body, err := json.Marshal(protocol.StatusRequest{
		Kind: protocol.StatusHeartbeat, DeviceID: "AA:BB:CC:00:00:01",
		Readings: []protocol.Reading{{Name: "power_w", Value: 7}},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sink{})
	w := nullResponseWriter{h: make(http.Header)}
	reader := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, Route(transport.OpStatus), nil)
	req.Body = io.NopCloser(reader)

	avg := testing.AllocsPerRun(200, func() {
		reader.Reset(body)
		srv.serve(w, req, &transport.Ops[transport.OpStatus])
	})
	// Measured ~14 (MaxBytesReader wrapper, unmarshal of the request's
	// strings and readings, the boxed response); 20 is the regression
	// tripwire.
	if avg > 20 {
		t.Errorf("status decode = %.1f allocs/op, want <= 20", avg)
	}
}
