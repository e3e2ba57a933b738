package transport

import (
	"encoding/json"

	"github.com/iotbind/iotbind/internal/protocol"
)

// This file is the only place the per-operation fan-out of Cloud is
// written out for code that treats every operation alike: the interface
// itself, the Op enum and its wire names, the Ops table the JSON-speaking
// server (httpapi) dispatches through, the Hopped forwarder the wrappers,
// routers and the retry layer embed, and the JSONLane the JSON-speaking
// client embeds. Adding an operation means one entry in each of the five,
// next to its protocol types, its Service / Durable / trace methods (and
// a retry method if its request carries an IdempotencyKey), its wirecodec
// body pair and its binapi row (DESIGN.md "Adding an operation");
// TestOpsComplete here and TestKindsComplete in binapi name whichever
// entry is missing.

// Cloud is the full operation surface of an emulated IoT cloud. The
// in-process implementation is cloud.Service; the HTTP client in the
// httpapi package implements the same interface over the wire. A
// request's slices are borrowed for the call (binapi reuses them): an
// implementation copies what it keeps. Strings are immutable and may be
// kept, but those a Canonical lent for the call (protocol.HeldCall).
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

// Canonical is offered by a Cloud holding the tables a request's strings
// name (protocol.Held), or one forwarding to it: Canonical returns the
// table's own string equal to raw, else a fresh copy. raw is non-empty
// and valid only during the call it is decoded for; a Cloud that keeps
// no protocol.HeldCall string past the call — no idempotency key, and no
// source address but a registration's — may answer one with raw.
type Canonical interface {
	Canonical(protocol.Held, []byte) string
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
	// Begin picks the backend for one attempt, or refuses it. routingKey
	// is the account ID for register-user and login and the device ID for
	// every other operation.
	Begin(op Op, routingKey string) (Cloud, error)
	// End observes the outcome of an attempt Begin admitted — exactly
	// once, with the backend's error and the attempt's number from 1 —
	// and returns the error the caller sees, or again to run the call
	// once more from Begin.
	End(op Op, attempt int, err error) (again bool, _ error)
}

// Hopped implements every Cloud method as the attempt loop: Begin, the
// same method on the backend Begin returned, End, until End stops. A
// type embeds it to become a Cloud and declares only the methods it
// treats differently.
type Hopped struct{ hop Hop }

var _ Cloud = Hopped{}

// NewHopped returns the forwarder over h.
func NewHopped(h Hop) Hopped { return Hopped{hop: h} }

// forward runs one call through h's attempt loop. When End fails an
// attempt the backend completed, the response is dropped: the caller
// must not see data from a delivery it is told failed.
func forward[Req, Resp any](h Hop, op Op, key string, call func(Cloud, Req) (Resp, error), req Req) (Resp, error) {
	for attempt := 1; ; attempt++ {
		c, err := h.Begin(op, key)
		if err != nil {
			var zero Resp
			return zero, err
		}
		resp, err := call(c, req)
		again, endErr := h.End(op, attempt, err)
		if again {
			continue
		}
		if endErr != nil && err == nil {
			var zero Resp
			return zero, endErr
		}
		return resp, endErr
	}
}

// forwardErr is forward for an operation that answers only an error.
func forwardErr[Req any](h Hop, op Op, key string, call func(Cloud, Req) error, req Req) error {
	for attempt := 1; ; attempt++ {
		c, err := h.Begin(op, key)
		if err != nil {
			return err
		}
		if again, err := h.End(op, attempt, call(c, req)); !again {
			return err
		}
	}
}

func (h Hopped) RegisterUser(req protocol.RegisterUserRequest) error {
	return forwardErr(h.hop, OpRegisterUser, req.UserID, Cloud.RegisterUser, req)
}

func (h Hopped) Login(req protocol.LoginRequest) (protocol.LoginResponse, error) {
	return forward(h.hop, OpLogin, req.UserID, Cloud.Login, req)
}

func (h Hopped) RequestDeviceToken(req protocol.DeviceTokenRequest) (protocol.DeviceTokenResponse, error) {
	return forward(h.hop, OpDeviceToken, req.DeviceID, Cloud.RequestDeviceToken, req)
}

func (h Hopped) RequestBindToken(req protocol.BindTokenRequest) (protocol.BindTokenResponse, error) {
	return forward(h.hop, OpBindToken, req.DeviceID, Cloud.RequestBindToken, req)
}

func (h Hopped) HandleStatus(req protocol.StatusRequest) (protocol.StatusResponse, error) {
	return forward(h.hop, OpStatus, req.DeviceID, Cloud.HandleStatus, req)
}

func (h Hopped) HandleBind(req protocol.BindRequest) (protocol.BindResponse, error) {
	return forward(h.hop, OpBind, req.DeviceID, Cloud.HandleBind, req)
}

func (h Hopped) HandleUnbind(req protocol.UnbindRequest) error {
	return forwardErr(h.hop, OpUnbind, req.DeviceID, Cloud.HandleUnbind, req)
}

func (h Hopped) HandleControl(req protocol.ControlRequest) (protocol.ControlResponse, error) {
	return forward(h.hop, OpControl, req.DeviceID, Cloud.HandleControl, req)
}

func (h Hopped) PushUserData(req protocol.PushUserDataRequest) error {
	return forwardErr(h.hop, OpUserData, req.DeviceID, Cloud.PushUserData, req)
}

func (h Hopped) Readings(req protocol.ReadingsRequest) (protocol.ReadingsResponse, error) {
	return forward(h.hop, OpReadings, req.DeviceID, Cloud.Readings, req)
}

func (h Hopped) HandleShare(req protocol.ShareRequest) error {
	return forwardErr(h.hop, OpShare, req.DeviceID, Cloud.HandleShare, req)
}

func (h Hopped) Shares(req protocol.SharesRequest) (protocol.SharesResponse, error) {
	return forward(h.hop, OpShares, req.DeviceID, Cloud.Shares, req)
}

func (h Hopped) HandleDelegate(req protocol.DelegateRequest) (protocol.DelegateResponse, error) {
	return forward(h.hop, OpDelegate, req.DeviceID, Cloud.HandleDelegate, req)
}

func (h Hopped) HandleRevokeDelegation(req protocol.RevokeDelegationRequest) error {
	return forwardErr(h.hop, OpRevokeDelegation, req.DeviceID, Cloud.HandleRevokeDelegation, req)
}

func (h Hopped) ListDelegations(req protocol.ListDelegationsRequest) (protocol.ListDelegationsResponse, error) {
	return forward(h.hop, OpDelegations, req.DeviceID, Cloud.ListDelegations, req)
}

func (h Hopped) ShadowState(req protocol.ShadowStateRequest) (protocol.ShadowStateResponse, error) {
	return forward(h.hop, OpShadow, req.DeviceID, Cloud.ShadowState, req)
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
