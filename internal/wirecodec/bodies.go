package wirecodec

import (
	"bytes"

	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/protocol"
)

// One request body per operation and, where the operation answers with
// data, one response body — written once for both carriers: a binapi
// frame is the bare body (the frame kind names the operation, and the
// cloud stamps records with its own clock when it logs them); a WAL
// record is tag + time + the same request body (record.go). The status
// pair lives in wirecodec.go.
//
// Everything but the batch body passes by value: binapi calls these
// through func values in its operation rows, and a pointer handed to a
// func value escapes — one heap allocation per request per side.
//
// What a decoder yields is what encoding/json yields for the same value
// over httpapi, so the two front ends stay interchangeable: a list or
// map JSON omits when empty decodes to nil, a list JSON always carries
// ("guests", "grants", a response's "readings") decodes to an empty
// non-nil slice, a zero time stays zero, and the enumerations travel as
// the integers they are (an i64, like a delegation's depth), unvalidated.

// PutRegisterUserBody writes a register-user request body.
func PutRegisterUserBody(b *bytes.Buffer, req protocol.RegisterUserRequest) {
	PutStr(b, req.UserID)
	PutStr(b, req.Password)
}

// ReadRegisterUserBody reverses PutRegisterUserBody.
func ReadRegisterUserBody(c *Cursor) protocol.RegisterUserRequest {
	return protocol.RegisterUserRequest{UserID: c.Str(), Password: c.Str()}
}

// PutLoginBody writes a login request body.
func PutLoginBody(b *bytes.Buffer, req protocol.LoginRequest) {
	PutStr(b, req.UserID)
	PutStr(b, req.Password)
}

// ReadLoginBody reverses PutLoginBody.
func ReadLoginBody(c *Cursor) protocol.LoginRequest {
	return protocol.LoginRequest{UserID: c.Str(), Password: c.Str()}
}

// PutLoginResponse writes a login response body.
func PutLoginResponse(b *bytes.Buffer, resp protocol.LoginResponse) { PutStr(b, resp.UserToken) }

// ReadLoginResponse reverses PutLoginResponse.
func ReadLoginResponse(c *Cursor) protocol.LoginResponse {
	return protocol.LoginResponse{UserToken: c.Str()}
}

// PutDeviceTokenBody writes a device-token request body.
func PutDeviceTokenBody(b *bytes.Buffer, req protocol.DeviceTokenRequest) {
	PutStr(b, req.UserToken)
	PutStr(b, req.DeviceID)
	PutStr(b, req.PairingProof)
}

// ReadDeviceTokenBody reverses PutDeviceTokenBody.
func ReadDeviceTokenBody(c *Cursor) protocol.DeviceTokenRequest {
	return protocol.DeviceTokenRequest{UserToken: c.Str(), DeviceID: c.Str(), PairingProof: c.Str()}
}

// PutDeviceTokenResponse writes a device-token response body.
func PutDeviceTokenResponse(b *bytes.Buffer, resp protocol.DeviceTokenResponse) {
	PutStr(b, resp.DevToken)
}

// ReadDeviceTokenResponse reverses PutDeviceTokenResponse.
func ReadDeviceTokenResponse(c *Cursor) protocol.DeviceTokenResponse {
	return protocol.DeviceTokenResponse{DevToken: c.Str()}
}

// PutBindTokenBody writes a bind-token request body.
func PutBindTokenBody(b *bytes.Buffer, req protocol.BindTokenRequest) {
	PutStr(b, req.UserToken)
	PutStr(b, req.DeviceID)
}

// ReadBindTokenBody reverses PutBindTokenBody.
func ReadBindTokenBody(c *Cursor) protocol.BindTokenRequest {
	return protocol.BindTokenRequest{UserToken: c.Str(), DeviceID: c.Str()}
}

// PutBindTokenResponse writes a bind-token response body.
func PutBindTokenResponse(b *bytes.Buffer, resp protocol.BindTokenResponse) {
	PutStr(b, resp.BindToken)
}

// ReadBindTokenResponse reverses PutBindTokenResponse.
func ReadBindTokenResponse(c *Cursor) protocol.BindTokenResponse {
	return protocol.BindTokenResponse{BindToken: c.Str()}
}

// PutBatchBody writes a status-batch request body. The envelope source
// address and each item's own address are both kept: the handler only
// overrides items when the envelope address is non-empty.
func PutBatchBody(b *bytes.Buffer, req *protocol.StatusBatchRequest) {
	PutStr(b, req.SourceIP)
	PutUvarint(b, uint64(len(req.Items)))
	for i := range req.Items {
		PutStatusBody(b, &req.Items[i])
	}
}

// ReadBatchBody reverses PutBatchBody.
func ReadBatchBody(c *Cursor) protocol.StatusBatchRequest {
	var req protocol.StatusBatchRequest
	req.SourceIP = c.Str()
	n := c.Count(MinStatusSize)
	if c.Err() != nil {
		return req
	}
	req.Items = make([]protocol.StatusRequest, n)
	for i := range req.Items {
		req.Items[i] = ReadStatusBody(c)
	}
	return req
}

// PutBindBody writes a bind request body. Like the status body it
// carries the source address, which JSON does not: a binapi client sends
// it empty, the server stamps the connection's address, and the WAL
// replays the stamp.
func PutBindBody(b *bytes.Buffer, req protocol.BindRequest) {
	PutStr(b, req.DeviceID)
	PutStr(b, req.UserToken)
	PutStr(b, req.UserID)
	PutStr(b, req.UserPassword)
	PutStr(b, req.BindToken)
	PutStr(b, req.BindProof)
	PutI64(b, int64(req.Sender))
	PutStr(b, req.IdempotencyKey)
	PutStr(b, req.SourceIP)
}

// ReadBindBody reverses PutBindBody.
func ReadBindBody(c *Cursor) protocol.BindRequest {
	return protocol.BindRequest{
		DeviceID: c.Str(), UserToken: c.Str(), UserID: c.Str(), UserPassword: c.Str(),
		BindToken: c.Str(), BindProof: c.Str(), Sender: core.Sender(c.I64()),
		IdempotencyKey: c.Str(), SourceIP: c.Str(),
	}
}

// PutBindResponse writes a bind response body.
func PutBindResponse(b *bytes.Buffer, resp protocol.BindResponse) {
	PutStr(b, resp.BoundUser)
	PutStr(b, resp.SessionToken)
}

// ReadBindResponse reverses PutBindResponse.
func ReadBindResponse(c *Cursor) protocol.BindResponse {
	return protocol.BindResponse{BoundUser: c.Str(), SessionToken: c.Str()}
}

// PutUnbindBody writes an unbind request body (source address as in
// PutBindBody).
func PutUnbindBody(b *bytes.Buffer, req protocol.UnbindRequest) {
	PutStr(b, req.DeviceID)
	PutStr(b, req.UserToken)
	PutI64(b, int64(req.Sender))
	PutStr(b, req.IdempotencyKey)
	PutStr(b, req.SourceIP)
}

// ReadUnbindBody reverses PutUnbindBody.
func ReadUnbindBody(c *Cursor) protocol.UnbindRequest {
	return protocol.UnbindRequest{
		DeviceID: c.Str(), UserToken: c.Str(), Sender: core.Sender(c.I64()),
		IdempotencyKey: c.Str(), SourceIP: c.Str(),
	}
}

// PutControlBody writes a control request body (source address as in
// PutBindBody).
func PutControlBody(b *bytes.Buffer, req protocol.ControlRequest) {
	PutStr(b, req.DeviceID)
	PutStr(b, req.UserToken)
	PutStr(b, req.SessionToken)
	PutCommand(b, &req.Command)
	PutStr(b, req.SourceIP)
}

// ReadControlBody reverses PutControlBody.
func ReadControlBody(c *Cursor) protocol.ControlRequest {
	return protocol.ControlRequest{
		DeviceID: c.Str(), UserToken: c.Str(), SessionToken: c.Str(),
		Command: ReadCommand(c), SourceIP: c.Str(),
	}
}

// PutControlResponse writes a control response body.
func PutControlResponse(b *bytes.Buffer, resp protocol.ControlResponse) { putBool(b, resp.Queued) }

// ReadControlResponse reverses PutControlResponse.
func ReadControlResponse(c *Cursor) protocol.ControlResponse {
	return protocol.ControlResponse{Queued: c.U8() != 0}
}

// PutUserDataBody writes a user-data push request body.
func PutUserDataBody(b *bytes.Buffer, req protocol.PushUserDataRequest) {
	PutStr(b, req.DeviceID)
	PutStr(b, req.UserToken)
	PutStr(b, req.Data.Kind)
	PutStr(b, req.Data.Body)
}

// ReadUserDataBody reverses PutUserDataBody.
func ReadUserDataBody(c *Cursor) protocol.PushUserDataRequest {
	return protocol.PushUserDataRequest{
		DeviceID: c.Str(), UserToken: c.Str(), Data: protocol.UserData{Kind: c.Str(), Body: c.Str()},
	}
}

// PutReadingsBody writes a readings request body.
func PutReadingsBody(b *bytes.Buffer, req protocol.ReadingsRequest) {
	PutStr(b, req.DeviceID)
	PutStr(b, req.UserToken)
}

// ReadReadingsBody reverses PutReadingsBody.
func ReadReadingsBody(c *Cursor) protocol.ReadingsRequest {
	return protocol.ReadingsRequest{DeviceID: c.Str(), UserToken: c.Str()}
}

// PutReadingsResponse writes a readings response body.
func PutReadingsResponse(b *bytes.Buffer, resp protocol.ReadingsResponse) {
	putReadings(b, resp.Readings)
}

// ReadReadingsResponse reverses PutReadingsResponse.
func ReadReadingsResponse(c *Cursor) protocol.ReadingsResponse {
	n := c.Count(MinReadingSize)
	resp := protocol.ReadingsResponse{Readings: make([]protocol.Reading, n)}
	readReadings(c, resp.Readings)
	return resp
}

// PutShareBody writes a share request body.
func PutShareBody(b *bytes.Buffer, req protocol.ShareRequest) {
	PutStr(b, req.DeviceID)
	PutStr(b, req.UserToken)
	PutStr(b, req.Guest)
	putBool(b, req.Revoke)
}

// ReadShareBody reverses PutShareBody.
func ReadShareBody(c *Cursor) protocol.ShareRequest {
	return protocol.ShareRequest{DeviceID: c.Str(), UserToken: c.Str(), Guest: c.Str(), Revoke: c.U8() != 0}
}

// PutSharesBody writes a shares (guest list) request body.
func PutSharesBody(b *bytes.Buffer, req protocol.SharesRequest) {
	PutStr(b, req.DeviceID)
	PutStr(b, req.UserToken)
}

// ReadSharesBody reverses PutSharesBody.
func ReadSharesBody(c *Cursor) protocol.SharesRequest {
	return protocol.SharesRequest{DeviceID: c.Str(), UserToken: c.Str()}
}

// PutSharesResponse writes a shares response body.
func PutSharesResponse(b *bytes.Buffer, resp protocol.SharesResponse) { putStrs(b, resp.Guests) }

// ReadSharesResponse reverses PutSharesResponse.
func ReadSharesResponse(c *Cursor) protocol.SharesResponse {
	resp := protocol.SharesResponse{Guests: make([]string, c.Count(MinStringSize))}
	readStrs(c, resp.Guests)
	return resp
}

// PutDelegateBody writes a delegation-grant request body.
func PutDelegateBody(b *bytes.Buffer, req protocol.DelegateRequest) {
	PutStr(b, req.DeviceID)
	PutStr(b, req.UserToken)
	PutStr(b, req.Grantee)
	putStrs(b, req.Scopes)
	PutI64(b, req.TTLSeconds)
	PutI64(b, int64(req.Depth))
	PutStr(b, req.IdempotencyKey)
}

// ReadDelegateBody reverses PutDelegateBody.
func ReadDelegateBody(c *Cursor) protocol.DelegateRequest {
	var req protocol.DelegateRequest
	req.DeviceID = c.Str()
	req.UserToken = c.Str()
	req.Grantee = c.Str()
	if n := c.Count(MinStringSize); n > 0 {
		req.Scopes = make([]string, n)
		readStrs(c, req.Scopes)
	}
	req.TTLSeconds = c.I64()
	req.Depth = int(c.I64())
	req.IdempotencyKey = c.Str()
	return req
}

// PutDelegateResponse writes a delegation-grant response body.
func PutDelegateResponse(b *bytes.Buffer, resp protocol.DelegateResponse) {
	PutStr(b, resp.DelegationToken)
	PutI64(b, EncodeTime(resp.ExpiresAt))
}

// ReadDelegateResponse reverses PutDelegateResponse.
func ReadDelegateResponse(c *Cursor) protocol.DelegateResponse {
	return protocol.DelegateResponse{DelegationToken: c.Str(), ExpiresAt: DecodeTime(c.I64())}
}

// PutRevokeDelegationBody writes a delegation-revocation request body.
func PutRevokeDelegationBody(b *bytes.Buffer, req protocol.RevokeDelegationRequest) {
	PutStr(b, req.DeviceID)
	PutStr(b, req.UserToken)
	PutStr(b, req.Grantee)
	PutStr(b, req.IdempotencyKey)
}

// ReadRevokeDelegationBody reverses PutRevokeDelegationBody.
func ReadRevokeDelegationBody(c *Cursor) protocol.RevokeDelegationRequest {
	return protocol.RevokeDelegationRequest{
		DeviceID: c.Str(), UserToken: c.Str(), Grantee: c.Str(), IdempotencyKey: c.Str(),
	}
}

// PutDelegationsBody writes a list-delegations request body.
func PutDelegationsBody(b *bytes.Buffer, req protocol.ListDelegationsRequest) {
	PutStr(b, req.DeviceID)
	PutStr(b, req.UserToken)
}

// ReadDelegationsBody reverses PutDelegationsBody.
func ReadDelegationsBody(c *Cursor) protocol.ListDelegationsRequest {
	return protocol.ListDelegationsRequest{DeviceID: c.Str(), UserToken: c.Str()}
}

// PutDelegationsResponse writes a list-delegations response body.
func PutDelegationsResponse(b *bytes.Buffer, resp protocol.ListDelegationsResponse) {
	PutUvarint(b, uint64(len(resp.Grants)))
	for i := range resp.Grants {
		g := &resp.Grants[i]
		PutStr(b, g.Grantor)
		PutStr(b, g.Grantee)
		putStrs(b, g.Scopes)
		PutI64(b, EncodeTime(g.ExpiresAt))
		PutI64(b, int64(g.Depth))
	}
}

// ReadDelegationsResponse reverses PutDelegationsResponse. A grant's
// scope list is one JSON always carries, so it too decodes non-nil.
func ReadDelegationsResponse(c *Cursor) protocol.ListDelegationsResponse {
	resp := protocol.ListDelegationsResponse{Grants: make([]protocol.DelegationInfo, c.Count(MinDelegationInfoSize))}
	for i := range resp.Grants {
		g := &resp.Grants[i]
		g.Grantor = c.Str()
		g.Grantee = c.Str()
		g.Scopes = make([]string, c.Count(MinStringSize))
		readStrs(c, g.Scopes)
		g.ExpiresAt = DecodeTime(c.I64())
		g.Depth = int(c.I64())
	}
	return resp
}

// PutShadowBody writes a shadow-state request body.
func PutShadowBody(b *bytes.Buffer, req protocol.ShadowStateRequest) { PutStr(b, req.DeviceID) }

// ReadShadowBody reverses PutShadowBody.
func ReadShadowBody(c *Cursor) protocol.ShadowStateRequest {
	return protocol.ShadowStateRequest{DeviceID: c.Str()}
}

// PutShadowResponse writes a shadow-state response body.
func PutShadowResponse(b *bytes.Buffer, resp protocol.ShadowStateResponse) {
	PutI64(b, int64(resp.State))
	PutStr(b, resp.BoundUser)
}

// ReadShadowResponse reverses PutShadowResponse.
func ReadShadowResponse(c *Cursor) protocol.ShadowStateResponse {
	return protocol.ShadowStateResponse{State: core.ShadowState(c.I64()), BoundUser: c.Str()}
}

func putBool(b *bytes.Buffer, v bool) {
	var u uint8
	if v {
		u = 1
	}
	PutU8(b, u)
}

// putStrs writes a count-prefixed string list; readStrs fills one the
// caller sized with Cursor.Count(MinStringSize).
func putStrs(b *bytes.Buffer, list []string) {
	PutUvarint(b, uint64(len(list)))
	for _, s := range list {
		PutStr(b, s)
	}
}

func readStrs(c *Cursor, list []string) {
	for i := range list {
		list[i] = c.Str()
	}
}
