// Package httpapi exposes an emulated IoT cloud as an HTTP/JSON service
// and provides a client that implements the same transport.Cloud interface
// the in-process emulation uses, so devices, apps and attackers can run
// against a cloud across a real network boundary. The server assigns each
// request's source address from the connection — senders cannot choose it,
// matching how the source-IP co-location defence observes addresses.
package httpapi

import (
	"errors"
	"fmt"
	"net"
	"net/http"

	"github.com/iotbind/iotbind/internal/jsonpool"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/transport"
)

// routes holds each operation's path: its wire name under /api/v1/.
var routes = func() (r [len(transport.Ops)]string) {
	for op := range r {
		r[op] = "/api/v1/" + transport.Op(op).String()
	}
	return r
}()

// Route returns the path an operation is served at.
func Route(op transport.Op) string { return routes[op] }

// maxBody bounds a request or response body on this front end.
const maxBody = 1 << 20

// errorBody is the JSON error envelope.
type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// statusForCode attaches HTTP statuses to the shared protocol wire codes.
var statusForCode = map[string]int{
	"auth_failed":       http.StatusUnauthorized,
	"unknown_device":    http.StatusNotFound,
	"already_bound":     http.StatusConflict,
	"not_bound":         http.StatusConflict,
	"not_permitted":     http.StatusForbidden,
	"unsupported":       http.StatusBadRequest,
	"outside_window":    http.StatusForbidden,
	"device_offline":    http.StatusServiceUnavailable,
	"user_exists":       http.StatusConflict,
	"payload_too_large": http.StatusRequestEntityTooLarge,
	"bad_request":       http.StatusBadRequest,
}

// Server adapts a transport.Cloud to HTTP.
type Server struct {
	cloud transport.Cloud
	mux   *http.ServeMux
}

var _ http.Handler = (*Server)(nil)

// NewServer wraps a cloud implementation (typically *cloud.Service).
func NewServer(cloud transport.Cloud) *Server {
	s := &Server{cloud: cloud, mux: http.NewServeMux()}
	for op := range transport.Ops {
		row := &transport.Ops[op]
		s.mux.HandleFunc(Route(transport.Op(op)), func(w http.ResponseWriter, r *http.Request) {
			s.serve(w, r, row)
		})
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// serve answers one POST through the operation's table row, stamping the
// request with the connection's peer address.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, row *transport.OpRow) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST required")
		return
	}
	// Drain the body into a pooled buffer instead of io.ReadAll's fresh,
	// growth-by-doubling slice: the steady-state heartbeat path reuses one
	// backing array per concurrent request.
	buf := jsonpool.Get()
	defer buf.Put()
	if _, err := buf.Writer().ReadFrom(http.MaxBytesReader(w, r.Body, maxBody)); err != nil {
		// An oversized body is the sender's mistake, not an unreadable
		// one: answer 413 with the distinct payload_too_large code so the
		// client surfaces protocol.ErrPayloadTooLarge (which retry layers
		// know not to redeliver) instead of a generic bad_request.
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "payload_too_large",
				fmt.Sprintf("body exceeds %d bytes", tooLarge.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, "bad_request", "unreadable body")
		return
	}
	if buf.Len() == 0 {
		// A POST always carries its request; the table's "empty means
		// zero request" is for envelopes that may omit the payload.
		writeError(w, http.StatusBadRequest, "bad_request", "empty body")
		return
	}
	resp, err := row.Serve(s.cloud, buf.Bytes(), sourceIP(r))
	respond(w, resp, err)
}

// respond writes either the success payload or the mapped error.
func respond(w http.ResponseWriter, payload any, err error) {
	if err != nil {
		if code, ok := protocol.WireCode(err); ok {
			status, known := statusForCode[code]
			if !known {
				status = http.StatusBadRequest
			}
			writeError(w, status, code, err.Error())
			return
		}
		writeError(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	buf := jsonpool.Get()
	defer buf.Put()
	if encodeErr := buf.Encode(payload); encodeErr != nil {
		writeError(w, http.StatusInternalServerError, "internal", encodeErr.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(buf.Bytes())
}

func writeError(w http.ResponseWriter, status int, code, message string) {
	buf := jsonpool.Get()
	defer buf.Put()
	_ = buf.Encode(errorBody{Code: code, Message: message})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

// sourceIP extracts the peer address the cloud treats as the sender's
// public IP.
func sourceIP(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}
