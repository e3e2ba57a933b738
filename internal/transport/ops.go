package transport

import (
	"encoding/json"

	"github.com/iotbind/iotbind/internal/protocol"
)

// This file is the only place the per-operation fan-out of Cloud is
// written out for code that treats every operation alike: the interface
// itself, the Op enum and its wire names, the Ops table the JSON-speaking
// server (httpapi) dispatches through, the Hopped forwarder the wrappers
// and routers embed, and the JSONLane the JSON-speaking client embeds.
// Adding an operation means one entry in each of the five, next to its
// protocol types, its Service / Durable / retry / trace methods, its
// wirecodec body pair and its binapi row (DESIGN.md "Adding an
// operation"); TestOpsComplete here and TestKindsComplete in binapi name
// whichever entry is missing.

// Cloud is the full operation surface of an emulated IoT cloud. The
// in-process implementation is cloud.Service; the HTTP client in the
// httpapi package implements the same interface over the wire.
type Cloud interface {
	// RegisterUser creates a user account.
	RegisterUser(protocol.RegisterUserRequest) error
	// Login authenticates a user and issues a UserToken.
	Login(protocol.LoginRequest) (protocol.LoginResponse, error)
	// RequestDeviceToken issues a dynamic device token (Figure 3 Type 1).
	RequestDeviceToken(protocol.DeviceTokenRequest) (protocol.DeviceTokenResponse, error)
	// RequestBindToken issues a capability binding token (Figure 4c).
	RequestBindToken(protocol.BindTokenRequest) (protocol.BindTokenResponse, error)
	// HandleStatus processes a device status message.
	HandleStatus(protocol.StatusRequest) (protocol.StatusResponse, error)
	// HandleStatusBatch processes many status messages in one round trip
	// with per-item outcomes — the hot-path amortization for
	// heartbeat-dominated traffic.
	HandleStatusBatch(protocol.StatusBatchRequest) (protocol.StatusBatchResponse, error)
	// HandleBind processes a binding-creation message.
	HandleBind(protocol.BindRequest) (protocol.BindResponse, error)
	// HandleUnbind processes a binding-revocation message.
	HandleUnbind(protocol.UnbindRequest) error
	// HandleControl relays a command from the bound user to the device.
	HandleControl(protocol.ControlRequest) (protocol.ControlResponse, error)
	// PushUserData stores user state for delivery to the device.
	PushUserData(protocol.PushUserDataRequest) error
	// Readings returns device readings as visible to the bound user or a
	// guest.
	Readings(protocol.ReadingsRequest) (protocol.ReadingsResponse, error)
	// HandleShare grants or revokes guest access (many-to-one binding).
	HandleShare(protocol.ShareRequest) error
	// Shares lists a device's guests, as the owner sees them.
	Shares(protocol.SharesRequest) (protocol.SharesResponse, error)
	// HandleDelegate records a scoped, expiring, depth-limited delegation
	// grant and mints a delegation token from it.
	HandleDelegate(protocol.DelegateRequest) (protocol.DelegateResponse, error)
	// HandleRevokeDelegation withdraws a delegation grant (cascading to
	// derived grants on designs that revoke cascades).
	HandleRevokeDelegation(protocol.RevokeDelegationRequest) error
	// ListDelegations lists a device's delegation grants as visible to
	// the caller.
	ListDelegations(protocol.ListDelegationsRequest) (protocol.ListDelegationsResponse, error)
	// ShadowState inspects a device shadow (diagnostics).
	ShadowState(protocol.ShadowStateRequest) (protocol.ShadowStateResponse, error)
}

// Op identifies one Cloud operation.
type Op uint8

// One Op per Cloud method, in interface order.
const (
	OpRegisterUser Op = iota
	OpLogin
	OpDeviceToken
	OpBindToken
	OpStatus
	OpStatusBatch
	OpBind
	OpUnbind
	OpControl
	OpUserData
	OpReadings
	OpShare
	OpShares
	OpDelegate
	OpRevokeDelegation
	OpDelegations
	OpShadow
)

// OpRow describes one operation to a server that speaks JSON.
type OpRow struct {
	// Name is the operation's one wire name: the HTTP route suffix and
	// the label in injected-fault, retry and binapi decode errors.
	Name string
	// Serve decodes a JSON request (empty means the zero request),
	// overwrites its SourceIP with the address the front end observed
	// when the operation is network-facing, and calls the cloud. The
	// response is struct{}{} for operations that return only an error.
	Serve func(c Cloud, rawJSON []byte, sourceIP string) (any, error)
}

// Ops holds one row per operation, indexed by Op. The stamping rule
// lives here and in StampSource only: the operations whose request
// carries a SourceIP (TestOpsComplete checks both against the request
// types).
var Ops = [...]OpRow{
	OpRegisterUser:     rowErr("register-user", Cloud.RegisterUser, nil),
	OpLogin:            row("login", Cloud.Login, nil),
	OpDeviceToken:      row("device-token", Cloud.RequestDeviceToken, nil),
	OpBindToken:        row("bind-token", Cloud.RequestBindToken, nil),
	OpStatus:           row("status", Cloud.HandleStatus, func(r *protocol.StatusRequest, ip string) { r.SourceIP = ip }),
	OpStatusBatch:      row("status-batch", Cloud.HandleStatusBatch, func(r *protocol.StatusBatchRequest, ip string) { r.SourceIP = ip }),
	OpBind:             row("bind", Cloud.HandleBind, func(r *protocol.BindRequest, ip string) { r.SourceIP = ip }),
	OpUnbind:           rowErr("unbind", Cloud.HandleUnbind, func(r *protocol.UnbindRequest, ip string) { r.SourceIP = ip }),
	OpControl:          row("control", Cloud.HandleControl, func(r *protocol.ControlRequest, ip string) { r.SourceIP = ip }),
	OpUserData:         rowErr("user-data", Cloud.PushUserData, nil),
	OpReadings:         row("readings", Cloud.Readings, nil),
	OpShare:            rowErr("share", Cloud.HandleShare, nil),
	OpShares:           row("shares", Cloud.Shares, nil),
	OpDelegate:         row("delegate", Cloud.HandleDelegate, nil),
	OpRevokeDelegation: rowErr("revoke-delegation", Cloud.HandleRevokeDelegation, nil),
	OpDelegations:      row("delegations", Cloud.ListDelegations, nil),
	OpShadow:           row("shadow", Cloud.ShadowState, nil),
}

// String returns the operation's wire name.
func (o Op) String() string {
	if int(o) >= len(Ops) {
		return "unknown-op"
	}
	return Ops[o].Name
}

// errMalformedPayload is what a row's Serve returns for a request body
// that is not the JSON of its request type. It carries the bad_request
// wire code.
var errMalformedPayload error = malformedPayload{}

type malformedPayload struct{}

func (malformedPayload) Error() string { return "malformed payload" }
func (malformedPayload) Unwrap() error { return protocol.ErrBadRequest }

func row[Req, Resp any](name string, call func(Cloud, Req) (Resp, error), stamp func(*Req, string)) OpRow {
	return OpRow{Name: name, Serve: func(c Cloud, raw []byte, sourceIP string) (any, error) {
		var req Req
		if len(raw) > 0 && json.Unmarshal(raw, &req) != nil {
			return nil, errMalformedPayload
		}
		if stamp != nil {
			stamp(&req, sourceIP)
		}
		return call(c, req)
	}}
}

func rowErr[Req any](name string, call func(Cloud, Req) error, stamp func(*Req, string)) OpRow {
	return row(name, func(c Cloud, req Req) (struct{}, error) { return struct{}{}, call(c, req) }, stamp)
}

// Hop is what a wrapper or router decides per call; Hopped does the
// forwarding around it.
type Hop interface {
	// Begin picks the backend for one call, or refuses it. routingKey is
	// the account ID for register-user and login, the device ID for
	// every other single-device operation, and empty for a batch.
	Begin(op Op, routingKey string) (Cloud, error)
	// End observes the outcome of a call Begin admitted — exactly once,
	// with the backend's error — and returns the error the caller sees.
	End(op Op, err error) error
}

// Hopped implements every Cloud method as Begin, the same method on
// the backend Begin returned, End. A type embeds it to become a Cloud
// and declares only the methods it treats differently.
type Hopped struct{ hop Hop }

var _ Cloud = Hopped{}

// NewHopped returns the forwarder over h.
func NewHopped(h Hop) Hopped { return Hopped{hop: h} }

// ended closes one admitted call. When End fails a call the backend
// completed, the response is dropped: the caller must not see data from
// a delivery it is told failed.
func ended[Resp any](h Hop, op Op, resp Resp, err error) (Resp, error) {
	endErr := h.End(op, err)
	if endErr != nil && err == nil {
		var zero Resp
		return zero, endErr
	}
	return resp, endErr
}

func (h Hopped) RegisterUser(req protocol.RegisterUserRequest) error {
	c, err := h.hop.Begin(OpRegisterUser, req.UserID)
	if err != nil {
		return err
	}
	return h.hop.End(OpRegisterUser, c.RegisterUser(req))
}

func (h Hopped) Login(req protocol.LoginRequest) (protocol.LoginResponse, error) {
	c, err := h.hop.Begin(OpLogin, req.UserID)
	if err != nil {
		return protocol.LoginResponse{}, err
	}
	resp, err := c.Login(req)
	return ended(h.hop, OpLogin, resp, err)
}

func (h Hopped) RequestDeviceToken(req protocol.DeviceTokenRequest) (protocol.DeviceTokenResponse, error) {
	c, err := h.hop.Begin(OpDeviceToken, req.DeviceID)
	if err != nil {
		return protocol.DeviceTokenResponse{}, err
	}
	resp, err := c.RequestDeviceToken(req)
	return ended(h.hop, OpDeviceToken, resp, err)
}

func (h Hopped) RequestBindToken(req protocol.BindTokenRequest) (protocol.BindTokenResponse, error) {
	c, err := h.hop.Begin(OpBindToken, req.DeviceID)
	if err != nil {
		return protocol.BindTokenResponse{}, err
	}
	resp, err := c.RequestBindToken(req)
	return ended(h.hop, OpBindToken, resp, err)
}

func (h Hopped) HandleStatus(req protocol.StatusRequest) (protocol.StatusResponse, error) {
	c, err := h.hop.Begin(OpStatus, req.DeviceID)
	if err != nil {
		return protocol.StatusResponse{}, err
	}
	resp, err := c.HandleStatus(req)
	return ended(h.hop, OpStatus, resp, err)
}

// HandleStatusBatch forwards the batch whole: it is one wire message,
// so it is one Begin and one End.
func (h Hopped) HandleStatusBatch(req protocol.StatusBatchRequest) (protocol.StatusBatchResponse, error) {
	c, err := h.hop.Begin(OpStatusBatch, "")
	if err != nil {
		return protocol.StatusBatchResponse{}, err
	}
	resp, err := c.HandleStatusBatch(req)
	return ended(h.hop, OpStatusBatch, resp, err)
}

func (h Hopped) HandleBind(req protocol.BindRequest) (protocol.BindResponse, error) {
	c, err := h.hop.Begin(OpBind, req.DeviceID)
	if err != nil {
		return protocol.BindResponse{}, err
	}
	resp, err := c.HandleBind(req)
	return ended(h.hop, OpBind, resp, err)
}

func (h Hopped) HandleUnbind(req protocol.UnbindRequest) error {
	c, err := h.hop.Begin(OpUnbind, req.DeviceID)
	if err != nil {
		return err
	}
	return h.hop.End(OpUnbind, c.HandleUnbind(req))
}

func (h Hopped) HandleControl(req protocol.ControlRequest) (protocol.ControlResponse, error) {
	c, err := h.hop.Begin(OpControl, req.DeviceID)
	if err != nil {
		return protocol.ControlResponse{}, err
	}
	resp, err := c.HandleControl(req)
	return ended(h.hop, OpControl, resp, err)
}

func (h Hopped) PushUserData(req protocol.PushUserDataRequest) error {
	c, err := h.hop.Begin(OpUserData, req.DeviceID)
	if err != nil {
		return err
	}
	return h.hop.End(OpUserData, c.PushUserData(req))
}

func (h Hopped) Readings(req protocol.ReadingsRequest) (protocol.ReadingsResponse, error) {
	c, err := h.hop.Begin(OpReadings, req.DeviceID)
	if err != nil {
		return protocol.ReadingsResponse{}, err
	}
	resp, err := c.Readings(req)
	return ended(h.hop, OpReadings, resp, err)
}

func (h Hopped) HandleShare(req protocol.ShareRequest) error {
	c, err := h.hop.Begin(OpShare, req.DeviceID)
	if err != nil {
		return err
	}
	return h.hop.End(OpShare, c.HandleShare(req))
}

func (h Hopped) Shares(req protocol.SharesRequest) (protocol.SharesResponse, error) {
	c, err := h.hop.Begin(OpShares, req.DeviceID)
	if err != nil {
		return protocol.SharesResponse{}, err
	}
	resp, err := c.Shares(req)
	return ended(h.hop, OpShares, resp, err)
}

func (h Hopped) HandleDelegate(req protocol.DelegateRequest) (protocol.DelegateResponse, error) {
	c, err := h.hop.Begin(OpDelegate, req.DeviceID)
	if err != nil {
		return protocol.DelegateResponse{}, err
	}
	resp, err := c.HandleDelegate(req)
	return ended(h.hop, OpDelegate, resp, err)
}

func (h Hopped) HandleRevokeDelegation(req protocol.RevokeDelegationRequest) error {
	c, err := h.hop.Begin(OpRevokeDelegation, req.DeviceID)
	if err != nil {
		return err
	}
	return h.hop.End(OpRevokeDelegation, c.HandleRevokeDelegation(req))
}

func (h Hopped) ListDelegations(req protocol.ListDelegationsRequest) (protocol.ListDelegationsResponse, error) {
	c, err := h.hop.Begin(OpDelegations, req.DeviceID)
	if err != nil {
		return protocol.ListDelegationsResponse{}, err
	}
	resp, err := c.ListDelegations(req)
	return ended(h.hop, OpDelegations, resp, err)
}

func (h Hopped) ShadowState(req protocol.ShadowStateRequest) (protocol.ShadowStateResponse, error) {
	c, err := h.hop.Begin(OpShadow, req.DeviceID)
	if err != nil {
		return protocol.ShadowStateResponse{}, err
	}
	resp, err := c.ShadowState(req)
	return ended(h.hop, OpShadow, resp, err)
}

// RoundTripper carries one JSON-encodable request to a remote cloud and
// decodes the answer into resp, which is nil for operations that return
// only an error.
type RoundTripper interface {
	RoundTrip(op Op, req, resp any) error
}

// JSONLane implements every Cloud method as one RoundTrip. A client
// embeds it and declares only the methods it sends in another form.
type JSONLane struct{ rt RoundTripper }

var _ Cloud = JSONLane{}

// NewJSONLane returns the client methods over rt.
func NewJSONLane(rt RoundTripper) JSONLane { return JSONLane{rt: rt} }

func (l JSONLane) RegisterUser(req protocol.RegisterUserRequest) error {
	return l.rt.RoundTrip(OpRegisterUser, req, nil)
}

func (l JSONLane) Login(req protocol.LoginRequest) (resp protocol.LoginResponse, err error) {
	err = l.rt.RoundTrip(OpLogin, req, &resp)
	return resp, err
}

func (l JSONLane) RequestDeviceToken(req protocol.DeviceTokenRequest) (resp protocol.DeviceTokenResponse, err error) {
	err = l.rt.RoundTrip(OpDeviceToken, req, &resp)
	return resp, err
}

func (l JSONLane) RequestBindToken(req protocol.BindTokenRequest) (resp protocol.BindTokenResponse, err error) {
	err = l.rt.RoundTrip(OpBindToken, req, &resp)
	return resp, err
}

func (l JSONLane) HandleStatus(req protocol.StatusRequest) (resp protocol.StatusResponse, err error) {
	err = l.rt.RoundTrip(OpStatus, req, &resp)
	return resp, err
}

func (l JSONLane) HandleStatusBatch(req protocol.StatusBatchRequest) (resp protocol.StatusBatchResponse, err error) {
	err = l.rt.RoundTrip(OpStatusBatch, req, &resp)
	return resp, err
}

func (l JSONLane) HandleBind(req protocol.BindRequest) (resp protocol.BindResponse, err error) {
	err = l.rt.RoundTrip(OpBind, req, &resp)
	return resp, err
}

func (l JSONLane) HandleUnbind(req protocol.UnbindRequest) error {
	return l.rt.RoundTrip(OpUnbind, req, nil)
}

func (l JSONLane) HandleControl(req protocol.ControlRequest) (resp protocol.ControlResponse, err error) {
	err = l.rt.RoundTrip(OpControl, req, &resp)
	return resp, err
}

func (l JSONLane) PushUserData(req protocol.PushUserDataRequest) error {
	return l.rt.RoundTrip(OpUserData, req, nil)
}

func (l JSONLane) Readings(req protocol.ReadingsRequest) (resp protocol.ReadingsResponse, err error) {
	err = l.rt.RoundTrip(OpReadings, req, &resp)
	return resp, err
}

func (l JSONLane) HandleShare(req protocol.ShareRequest) error {
	return l.rt.RoundTrip(OpShare, req, nil)
}

func (l JSONLane) Shares(req protocol.SharesRequest) (resp protocol.SharesResponse, err error) {
	err = l.rt.RoundTrip(OpShares, req, &resp)
	return resp, err
}

func (l JSONLane) HandleDelegate(req protocol.DelegateRequest) (resp protocol.DelegateResponse, err error) {
	err = l.rt.RoundTrip(OpDelegate, req, &resp)
	return resp, err
}

func (l JSONLane) HandleRevokeDelegation(req protocol.RevokeDelegationRequest) error {
	return l.rt.RoundTrip(OpRevokeDelegation, req, nil)
}

func (l JSONLane) ListDelegations(req protocol.ListDelegationsRequest) (resp protocol.ListDelegationsResponse, err error) {
	err = l.rt.RoundTrip(OpDelegations, req, &resp)
	return resp, err
}

func (l JSONLane) ShadowState(req protocol.ShadowStateRequest) (resp protocol.ShadowStateResponse, err error) {
	err = l.rt.RoundTrip(OpShadow, req, &resp)
	return resp, err
}
