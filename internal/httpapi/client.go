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

// defaultTimeout bounds every request a Client makes. Without it a stalled server would park the calling agent forever —
// http.DefaultClient has no timeout — and one hung heartbeat would freeze
// a whole emulated fleet.
const defaultTimeout = 15 * time.Second

// Client talks to a Server over HTTP and implements transport.Cloud, so
// device agents, apps and attackers can run unchanged against a remote
// cloud.
type Client struct {
	// JSONLane is every transport.Cloud method as one POST.
	transport.JSONLane
	baseURL string
	httpc   *http.Client
}

// NewClient creates a client for the cloud at baseURL.
func NewClient(baseURL string) *Client {
	c := &Client{
		baseURL: strings.TrimSuffix(baseURL, "/"),
		httpc:   &http.Client{Timeout: defaultTimeout},
	}
	c.JSONLane = transport.NewJSONLane(poster{c})
	return c
}

// poster is the Client's round trip: POST the request to the operation's
// route, decode the 200 body into out or the error envelope into a
// protocol sentinel.
type poster struct{ c *Client }

func (p poster) RoundTrip(op transport.Op, in, out any) error {
	c, route := p.c, routes[op]
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
