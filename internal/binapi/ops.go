package binapi

import (
	"bytes"
	"fmt"

	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/transport"
	"github.com/iotbind/iotbind/internal/wirecodec"
)

// This file is binapi's side of the per-operation fan-out: one row per
// operation — its frame kind, its wirecodec request and response bodies
// and the Cloud method between them — from which both halves are
// derived: the Client method is a one-line exchange over the row, and
// the server's entry in kinds is the row's serve. Status and status
// batch are the exception; their client methods (client.go) and handlers
// (server.go) are written by hand around the undecoded source-address
// claim.
//
// Requests and responses pass through the rows' func values by value,
// and the cursor the read funcs walk lives in the worker or the pooled
// call: a *Req or a fresh *Cursor handed to a func value escapes, which
// costs one heap allocation per operation per side. The worker's cursor
// reads every request's device ID through the cloud's registry
// (Server.ids), status and cold rows alike.

// row is one operation's wire form and the call it carries.
type row[Req, Resp any] struct {
	op       transport.Op
	kind     uint8
	putReq   func(*bytes.Buffer, Req)
	readReq  func(*wirecodec.Cursor) Req
	call     func(transport.Cloud, Req) (Resp, error)
	putResp  func(*bytes.Buffer, Resp)
	readResp func(*wirecodec.Cursor) Resp
}

// handler serves one request frame of a kind: decode the payload, call
// the connection's cloud, append the response (or error) frame to w.out.
type handler struct {
	op    transport.Op
	serve func(w *worker, c *conn, stream uint32, payload []byte)
}

// kinds is the server's dispatch table, indexed by frame kind; an entry
// without a serve is an unknown kind. The two hand-written handlers are
// listed here, every other entry is filled in by its row.
var kinds = [256]handler{
	kindStatus: {transport.OpStatus, (*worker).serveStatus},
	kindBatch:  {transport.OpStatusBatch, (*worker).serveBatch},
}

// newRow builds an operation's row and enters it in kinds.
func newRow[Req, Resp any](op transport.Op, kind uint8,
	putReq func(*bytes.Buffer, Req), readReq func(*wirecodec.Cursor) Req,
	call func(transport.Cloud, Req) (Resp, error),
	putResp func(*bytes.Buffer, Resp), readResp func(*wirecodec.Cursor) Resp,
) *row[Req, Resp] {
	r := &row[Req, Resp]{op, kind, putReq, readReq, call, putResp, readResp}
	kinds[kind] = handler{op, r.serve}
	return r
}

// ackRow is newRow for an operation that returns only an error: its
// success response is one explicit ack byte (the frame layout forbids
// empty payloads).
func ackRow[Req any](op transport.Op, kind uint8,
	putReq func(*bytes.Buffer, Req), readReq func(*wirecodec.Cursor) Req, call func(transport.Cloud, Req) error,
) *row[Req, struct{}] {
	return newRow(op, kind, putReq, readReq,
		func(c transport.Cloud, req Req) (struct{}, error) { return struct{}{}, call(c, req) },
		func(b *bytes.Buffer, _ struct{}) { b.WriteByte(1) },
		func(c *wirecodec.Cursor) struct{} {
			if c.U8() != 1 {
				c.Fail()
			}
			return struct{}{}
		})
}

// The rows. A client never sends a source-address claim in a cold
// request — the field is the server's to fill (conn.cloud) — so the three
// put funcs whose body carries one blank it.
var (
	rowRegisterUser = ackRow(transport.OpRegisterUser, wirecodec.TagRegisterUser,
		wirecodec.PutRegisterUserBody, wirecodec.ReadRegisterUserBody, transport.Cloud.RegisterUser)
	rowLogin = newRow(transport.OpLogin, wirecodec.TagLogin,
		wirecodec.PutLoginBody, wirecodec.ReadLoginBody, transport.Cloud.Login,
		wirecodec.PutLoginResponse, wirecodec.ReadLoginResponse)
	rowDeviceToken = newRow(transport.OpDeviceToken, wirecodec.TagDeviceToken,
		wirecodec.PutDeviceTokenBody, wirecodec.ReadDeviceTokenBody, transport.Cloud.RequestDeviceToken,
		wirecodec.PutDeviceTokenResponse, wirecodec.ReadDeviceTokenResponse)
	rowBindToken = newRow(transport.OpBindToken, wirecodec.TagBindToken,
		wirecodec.PutBindTokenBody, wirecodec.ReadBindTokenBody, transport.Cloud.RequestBindToken,
		wirecodec.PutBindTokenResponse, wirecodec.ReadBindTokenResponse)
	rowBind = newRow(transport.OpBind, wirecodec.TagBind,
		func(b *bytes.Buffer, r protocol.BindRequest) { r.SourceIP = ""; wirecodec.PutBindBody(b, r) },
		wirecodec.ReadBindBody, transport.Cloud.HandleBind,
		wirecodec.PutBindResponse, wirecodec.ReadBindResponse)
	rowUnbind = ackRow(transport.OpUnbind, wirecodec.TagUnbind,
		func(b *bytes.Buffer, r protocol.UnbindRequest) { r.SourceIP = ""; wirecodec.PutUnbindBody(b, r) },
		wirecodec.ReadUnbindBody, transport.Cloud.HandleUnbind)
	rowControl = newRow(transport.OpControl, wirecodec.TagControl,
		func(b *bytes.Buffer, r protocol.ControlRequest) { r.SourceIP = ""; wirecodec.PutControlBody(b, r) },
		wirecodec.ReadControlBody, transport.Cloud.HandleControl,
		wirecodec.PutControlResponse, wirecodec.ReadControlResponse)
	rowUserData = ackRow(transport.OpUserData, wirecodec.TagUserData,
		wirecodec.PutUserDataBody, wirecodec.ReadUserDataBody, transport.Cloud.PushUserData)
	rowReadings = newRow(transport.OpReadings, kindReadings,
		wirecodec.PutReadingsBody, wirecodec.ReadReadingsBody, transport.Cloud.Readings,
		wirecodec.PutReadingsResponse, wirecodec.ReadReadingsResponse)
	rowShare = ackRow(transport.OpShare, wirecodec.TagShare,
		wirecodec.PutShareBody, wirecodec.ReadShareBody, transport.Cloud.HandleShare)
	rowShares = newRow(transport.OpShares, kindShares,
		wirecodec.PutSharesBody, wirecodec.ReadSharesBody, transport.Cloud.Shares,
		wirecodec.PutSharesResponse, wirecodec.ReadSharesResponse)
	rowDelegate = newRow(transport.OpDelegate, wirecodec.TagDelegate,
		wirecodec.PutDelegateBody, wirecodec.ReadDelegateBody, transport.Cloud.HandleDelegate,
		wirecodec.PutDelegateResponse, wirecodec.ReadDelegateResponse)
	rowRevokeDelegation = ackRow(transport.OpRevokeDelegation, wirecodec.TagRevokeDelegation,
		wirecodec.PutRevokeDelegationBody, wirecodec.ReadRevokeDelegationBody, transport.Cloud.HandleRevokeDelegation)
	rowDelegations = newRow(transport.OpDelegations, kindDelegations,
		wirecodec.PutDelegationsBody, wirecodec.ReadDelegationsBody, transport.Cloud.ListDelegations,
		wirecodec.PutDelegationsResponse, wirecodec.ReadDelegationsResponse)
	rowShadow = newRow(transport.OpShadow, kindShadow,
		wirecodec.PutShadowBody, wirecodec.ReadShadowBody, transport.Cloud.ShadowState,
		wirecodec.PutShadowResponse, wirecodec.ReadShadowResponse)
)

// serve is the row's server half.
func (r *row[Req, Resp]) serve(w *worker, c *conn, stream uint32, payload []byte) {
	cur := &w.cur
	cur.Reset(payload)
	req := r.readReq(cur)
	if !cur.Done() {
		w.errorFrame(stream, protocol.ErrBadRequest, "malformed "+r.op.String()+" body")
		return
	}
	resp, err := r.call(c.cloud, req)
	if err != nil {
		w.errorFrame(stream, err, err.Error())
		return
	}
	w.scratch.Reset()
	r.putResp(&w.scratch, resp)
	w.out = appendFrame(w.out, stream, r.kind, flagResponse, w.scratch.Bytes())
}

// exchange is the row's client half: one request frame out, the response
// body decoded on the caller's goroutine.
func exchange[Req, Resp any](c *Client, r *row[Req, Resp], req Req) (Resp, error) {
	var zero Resp
	eb := getEncBuf()
	r.putReq(&eb.payload, req)
	cl, id, err := c.roundTrip(r.kind, eb)
	if err != nil {
		return zero, err
	}
	cl.cur.Reset(cl.body)
	resp := r.readResp(&cl.cur)
	done := cl.cur.Done()
	c.finish(id, cl)
	if !done {
		return zero, fmt.Errorf("binapi: malformed %s response", r.op)
	}
	return resp, nil
}

// acked is exchange for the rows that answer with the ack byte.
func acked[Req any](c *Client, r *row[Req, struct{}], req Req) error {
	_, err := exchange(c, r, req)
	return err
}

func (c *Client) RegisterUser(req protocol.RegisterUserRequest) error {
	return acked(c, rowRegisterUser, req)
}

func (c *Client) Login(req protocol.LoginRequest) (protocol.LoginResponse, error) {
	return exchange(c, rowLogin, req)
}

func (c *Client) RequestDeviceToken(req protocol.DeviceTokenRequest) (protocol.DeviceTokenResponse, error) {
	return exchange(c, rowDeviceToken, req)
}

func (c *Client) RequestBindToken(req protocol.BindTokenRequest) (protocol.BindTokenResponse, error) {
	return exchange(c, rowBindToken, req)
}

func (c *Client) HandleBind(req protocol.BindRequest) (protocol.BindResponse, error) {
	return exchange(c, rowBind, req)
}

func (c *Client) HandleUnbind(req protocol.UnbindRequest) error {
	return acked(c, rowUnbind, req)
}

func (c *Client) HandleControl(req protocol.ControlRequest) (protocol.ControlResponse, error) {
	return exchange(c, rowControl, req)
}

func (c *Client) PushUserData(req protocol.PushUserDataRequest) error {
	return acked(c, rowUserData, req)
}

func (c *Client) Readings(req protocol.ReadingsRequest) (protocol.ReadingsResponse, error) {
	return exchange(c, rowReadings, req)
}

func (c *Client) HandleShare(req protocol.ShareRequest) error {
	return acked(c, rowShare, req)
}

func (c *Client) Shares(req protocol.SharesRequest) (protocol.SharesResponse, error) {
	return exchange(c, rowShares, req)
}

func (c *Client) HandleDelegate(req protocol.DelegateRequest) (protocol.DelegateResponse, error) {
	return exchange(c, rowDelegate, req)
}

func (c *Client) HandleRevokeDelegation(req protocol.RevokeDelegationRequest) error {
	return acked(c, rowRevokeDelegation, req)
}

func (c *Client) ListDelegations(req protocol.ListDelegationsRequest) (protocol.ListDelegationsResponse, error) {
	return exchange(c, rowDelegations, req)
}

func (c *Client) ShadowState(req protocol.ShadowStateRequest) (protocol.ShadowStateResponse, error) {
	return exchange(c, rowShadow, req)
}
