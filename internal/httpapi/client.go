package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"github.com/iotbind/iotbind/internal/jsonpool"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/transport"
)

// DefaultTimeout bounds every request a Client makes unless overridden.
// Without it a stalled server would park the calling agent forever —
// http.DefaultClient has no timeout — and one hung heartbeat would freeze
// a whole emulated fleet.
const DefaultTimeout = 15 * time.Second

// Client talks to a Server over HTTP and implements transport.Cloud, so
// device agents, apps and attackers can run unchanged against a remote
// cloud.
type Client struct {
	// JSONLane is every transport.Cloud method as one POST.
	transport.JSONLane
	baseURL string
	httpc   *http.Client
}

// ClientOption configures a Client.
type ClientOption interface {
	apply(*Client)
}

type clientOptionFunc func(*Client)

func (f clientOptionFunc) apply(c *Client) { f(c) }

// WithHTTPClient overrides the underlying *http.Client. The caller owns
// the client's timeout configuration — no default is imposed on it.
func WithHTTPClient(h *http.Client) ClientOption {
	return clientOptionFunc(func(c *Client) { c.httpc = h })
}

// WithTimeout overrides the per-request timeout on whatever client is in
// use, preserving a custom transport, cookie jar, or redirect policy
// installed by an earlier WithHTTPClient (the client is shallow-cloned, so
// a caller-owned *http.Client is never mutated). Zero disables the timeout
// altogether (the pre-fix behaviour; useful only for debugging).
func WithTimeout(d time.Duration) ClientOption {
	return clientOptionFunc(func(c *Client) {
		clone := *c.httpc
		clone.Timeout = d
		c.httpc = &clone
	})
}

// NewClient creates a client for the cloud at baseURL.
func NewClient(baseURL string, opts ...ClientOption) *Client {
	c := &Client{
		baseURL: strings.TrimSuffix(baseURL, "/"),
		httpc:   &http.Client{Timeout: DefaultTimeout},
	}
	c.JSONLane = transport.NewJSONLane(poster{c})
	for _, o := range opts {
		o.apply(c)
	}
	return c
}

// poster is the Client's round trip: POST the request to the operation's
// route, decode the 200 body into out or the error envelope into a
// protocol sentinel.
type poster struct{ c *Client }

func (p poster) RoundTrip(op transport.Op, in, out any) error {
	c, route := p.c, Route(op)
	// Encode the request into a pooled buffer instead of json.Marshal's
	// fresh slice. The buffer is released only after the response has been
	// fully read: by then the server handler has consumed the request body,
	// so the transport is done reading from our reader.
	reqBuf := jsonpool.Get()
	defer reqBuf.Put()
	if err := reqBuf.Encode(in); err != nil {
		return fmt.Errorf("httpapi: encode %s: %w", route, err)
	}
	resp, err := c.httpc.Post(c.baseURL+route, "application/json", bytes.NewReader(reqBuf.Bytes()))
	if err != nil {
		// Network-level failures (timeouts, refused connections, resets)
		// wrap transport.ErrUnavailable so agents and retry policies
		// classify them exactly like in-process injected faults.
		return fmt.Errorf("httpapi: post %s: %w: %w", route, transport.ErrUnavailable, err)
	}
	defer resp.Body.Close()

	respBuf := jsonpool.Get()
	defer respBuf.Put()
	if _, err := respBuf.Writer().ReadFrom(io.LimitReader(resp.Body, maxBody)); err != nil {
		return fmt.Errorf("httpapi: read %s: %w", route, err)
	}
	data := respBuf.Bytes()
	if resp.StatusCode != http.StatusOK {
		var eb errorBody
		if err := json.Unmarshal(data, &eb); err != nil || eb.Code == "" {
			return fmt.Errorf("httpapi: %s: HTTP %d: %s", route, resp.StatusCode, string(data))
		}
		if sentinel, ok := protocol.FromWireCode(eb.Code); ok {
			return fmt.Errorf("httpapi: %s: %s: %w", route, eb.Message, sentinel)
		}
		return fmt.Errorf("httpapi: %s: %s (%s)", route, eb.Message, eb.Code)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("httpapi: decode %s: %w", route, err)
	}
	return nil
}
