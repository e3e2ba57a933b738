package wirecodec

import (
	"bytes"

	"github.com/iotbind/iotbind/internal/protocol"
)

// Bodies of the batch, sharing and delegation operations, written once
// for both carriers: a binapi frame is the bare body (the frame kind is
// the tag, and the cloud stamps records with its own clock when it logs
// them); a WAL record is tag + time + the same body (record.go).

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

// PutShareBody writes a share request body.
func PutShareBody(b *bytes.Buffer, req *protocol.ShareRequest) {
	PutStr(b, req.DeviceID)
	PutStr(b, req.UserToken)
	PutStr(b, req.Guest)
	var revoke uint8
	if req.Revoke {
		revoke = 1
	}
	PutU8(b, revoke)
}

// ReadShareBody reverses PutShareBody.
func ReadShareBody(c *Cursor) protocol.ShareRequest {
	var req protocol.ShareRequest
	req.DeviceID = c.Str()
	req.UserToken = c.Str()
	req.Guest = c.Str()
	req.Revoke = c.U8() != 0
	return req
}

// PutDelegateBody writes a delegation-grant request body.
func PutDelegateBody(b *bytes.Buffer, req *protocol.DelegateRequest) {
	PutStr(b, req.DeviceID)
	PutStr(b, req.UserToken)
	PutStr(b, req.Grantee)
	PutUvarint(b, uint64(len(req.Scopes)))
	for _, s := range req.Scopes {
		PutStr(b, s)
	}
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
	if n := c.Count(MinStringSize); c.Err() == nil && n > 0 {
		req.Scopes = make([]string, n)
		for i := range req.Scopes {
			req.Scopes[i] = c.Str()
		}
	}
	req.TTLSeconds = c.I64()
	req.Depth = int(c.I64())
	req.IdempotencyKey = c.Str()
	return req
}

// PutRevokeDelegationBody writes a delegation-revocation request body.
func PutRevokeDelegationBody(b *bytes.Buffer, req *protocol.RevokeDelegationRequest) {
	PutStr(b, req.DeviceID)
	PutStr(b, req.UserToken)
	PutStr(b, req.Grantee)
	PutStr(b, req.IdempotencyKey)
}

// ReadRevokeDelegationBody reverses PutRevokeDelegationBody.
func ReadRevokeDelegationBody(c *Cursor) protocol.RevokeDelegationRequest {
	var req protocol.RevokeDelegationRequest
	req.DeviceID = c.Str()
	req.UserToken = c.Str()
	req.Grantee = c.Str()
	req.IdempotencyKey = c.Str()
	return req
}

// PutDelegateResponse writes a delegation-grant response body.
func PutDelegateResponse(b *bytes.Buffer, resp *protocol.DelegateResponse) {
	PutStr(b, resp.DelegationToken)
	PutI64(b, EncodeTime(resp.ExpiresAt))
}

// ReadDelegateResponse reverses PutDelegateResponse.
func ReadDelegateResponse(c *Cursor) protocol.DelegateResponse {
	var resp protocol.DelegateResponse
	resp.DelegationToken = c.Str()
	resp.ExpiresAt = DecodeTime(c.I64())
	return resp
}
