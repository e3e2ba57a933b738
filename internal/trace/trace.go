// Package trace records the message sequence between the three parties —
// app, device, and cloud — as a remote-binding flow executes, reproducing
// the procedure diagrams of the paper (Figures 1, 3 and 4) as executable
// traces. A Recorder is shared by every traced transport; each cloud call
// becomes one arrow with its operation, salient fields and outcome.
package trace

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/transport"
)

// Event is one recorded message arrow.
type Event struct {
	// Seq is the 1-based sequence number.
	Seq int
	// From is the sending party label (e.g. "app(alice)").
	From string
	// Op is the operation name with salient detail (e.g. "Bind(DevId,UserToken)").
	Op string
	// Err is the cloud's error, empty on success.
	Err string
}

// String renders "from -> cloud : op [!err]".
func (e Event) String() string {
	arrow := fmt.Sprintf("%2d. %-16s -> cloud : %s", e.Seq, e.From, e.Op)
	if e.Err != "" {
		arrow += "   !" + e.Err
	}
	return arrow
}

// Recorder accumulates events from any number of traced transports. It is
// safe for concurrent use.
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{}
}

// record appends one event.
func (r *Recorder) record(from, op string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := Event{Seq: len(r.events) + 1, From: from, Op: op}
	if err != nil {
		e.Err = err.Error()
	}
	r.events = append(r.events, e)
}

// Events returns a copy of the recorded sequence.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Ops returns just the operation names, in order — convenient for
// asserting a flow's shape.
func (r *Recorder) Ops() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	ops := make([]string, 0, len(r.events))
	for _, e := range r.events {
		ops = append(ops, e.Op)
	}
	return ops
}

// Reset clears the recorded sequence.
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = nil
}

// Write renders the sequence as a Figure 1-style diagram.
func (r *Recorder) Write(w io.Writer, title string) error {
	var b strings.Builder
	b.WriteString(title)
	b.WriteString("\n")
	for _, e := range r.Events() {
		b.WriteString(e.String())
		b.WriteString("\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Transport wraps a cloud transport, recording every call under a party
// label.
func Transport(inner transport.Cloud, party string, rec *Recorder) transport.Cloud {
	return &traced{inner: inner, party: party, rec: rec}
}

type traced struct {
	inner transport.Cloud
	party string
	rec   *Recorder
}

var _ transport.Cloud = (*traced)(nil)

func (t *traced) RegisterUser(req protocol.RegisterUserRequest) error {
	err := t.inner.RegisterUser(req)
	t.rec.record(t.party, fmt.Sprintf("RegisterUser(%s)", req.UserID), err)
	return err
}

func (t *traced) Login(req protocol.LoginRequest) (protocol.LoginResponse, error) {
	resp, err := t.inner.Login(req)
	t.rec.record(t.party, fmt.Sprintf("Login(%s) -> UserToken", req.UserID), err)
	return resp, err
}

func (t *traced) RequestDeviceToken(req protocol.DeviceTokenRequest) (protocol.DeviceTokenResponse, error) {
	resp, err := t.inner.RequestDeviceToken(req)
	t.rec.record(t.party, fmt.Sprintf("RequestDeviceToken(%s) -> DevToken", req.DeviceID), err)
	return resp, err
}

func (t *traced) RequestBindToken(req protocol.BindTokenRequest) (protocol.BindTokenResponse, error) {
	resp, err := t.inner.RequestBindToken(req)
	t.rec.record(t.party, fmt.Sprintf("RequestBindToken(%s) -> BindToken", req.DeviceID), err)
	return resp, err
}

func (t *traced) HandleStatus(req protocol.StatusRequest) (protocol.StatusResponse, error) {
	resp, err := t.inner.HandleStatus(req)
	cred := "DevId"
	switch {
	case req.DevToken != "":
		cred = "DevToken"
	case req.Signature != "":
		cred = "Signature"
	}
	t.rec.record(t.party, fmt.Sprintf("Status(%s : %s)", req.Kind, cred), err)
	return resp, err
}

func (t *traced) HandleBind(req protocol.BindRequest) (protocol.BindResponse, error) {
	resp, err := t.inner.HandleBind(req)
	form := "DevId, UserToken"
	switch {
	case req.BindToken != "":
		form = "BindToken"
	case req.UserID != "":
		form = "DevId, UserId, UserPw"
	}
	t.rec.record(t.party, fmt.Sprintf("Bind(%s)", form), err)
	return resp, err
}

func (t *traced) HandleUnbind(req protocol.UnbindRequest) error {
	err := t.inner.HandleUnbind(req)
	form := "DevId, UserToken"
	if req.UserToken == "" {
		form = "DevId"
	}
	t.rec.record(t.party, fmt.Sprintf("Unbind(%s)", form), err)
	return err
}

func (t *traced) HandleControl(req protocol.ControlRequest) (protocol.ControlResponse, error) {
	resp, err := t.inner.HandleControl(req)
	t.rec.record(t.party, fmt.Sprintf("Control(%s)", req.Command.Name), err)
	return resp, err
}

func (t *traced) PushUserData(req protocol.PushUserDataRequest) error {
	err := t.inner.PushUserData(req)
	t.rec.record(t.party, fmt.Sprintf("PushUserData(%s)", req.Data.Kind), err)
	return err
}

func (t *traced) Readings(req protocol.ReadingsRequest) (protocol.ReadingsResponse, error) {
	resp, err := t.inner.Readings(req)
	t.rec.record(t.party, "Readings()", err)
	return resp, err
}

func (t *traced) HandleShare(req protocol.ShareRequest) error {
	err := t.inner.HandleShare(req)
	verb := "grant"
	if req.Revoke {
		verb = "revoke"
	}
	t.rec.record(t.party, fmt.Sprintf("Share(%s %s)", verb, req.Guest), err)
	return err
}

func (t *traced) Shares(req protocol.SharesRequest) (protocol.SharesResponse, error) {
	resp, err := t.inner.Shares(req)
	t.rec.record(t.party, "Shares()", err)
	return resp, err
}

func (t *traced) HandleDelegate(req protocol.DelegateRequest) (protocol.DelegateResponse, error) {
	resp, err := t.inner.HandleDelegate(req)
	t.rec.record(t.party, fmt.Sprintf("Delegate(%s : %s)", req.Grantee, strings.Join(req.Scopes, "+")), err)
	return resp, err
}

func (t *traced) HandleRevokeDelegation(req protocol.RevokeDelegationRequest) error {
	err := t.inner.HandleRevokeDelegation(req)
	t.rec.record(t.party, fmt.Sprintf("RevokeDelegation(%s)", req.Grantee), err)
	return err
}

func (t *traced) ListDelegations(req protocol.ListDelegationsRequest) (protocol.ListDelegationsResponse, error) {
	resp, err := t.inner.ListDelegations(req)
	t.rec.record(t.party, "ListDelegations()", err)
	return resp, err
}

func (t *traced) ShadowState(req protocol.ShadowStateRequest) (protocol.ShadowStateResponse, error) {
	// Diagnostics are not part of the protocol flow; pass through
	// unrecorded.
	return t.inner.ShadowState(req)
}
