// Package attacker implements the paper's remote adversary (Section III-A):
// a party with ordinary cloud access, their own account, and knowledge of a
// victim's device ID — obtained from labels, ownership transfer, traffic,
// or enumeration — but no access to the victim's local network, the
// device's firmware secrets, or the victim's credentials.
//
// The toolkit provides the message-forgery mechanics behind the attacks of
// Table II. Classifying an attempt as the paper does (success, failure,
// unconfirmed) additionally requires observing the victim side; the testbed
// package does that.
package attacker

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"reflect"
	"sync"

	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/devid"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/transport"
)

// ErrForgeryUnavailable is returned when an attack needs device-protocol
// messages the attacker could not reconstruct (the paper's firmware-opaque
// products, reported as "O" in Table III).
var ErrForgeryUnavailable = errors.New("attacker: device-message forgery unavailable (firmware resisted analysis)")

// errNotQueued is a control the cloud accepted without queueing it.
var errNotQueued = errors.New("attacker: control not queued")

// Refusal is the cloud's refusal of one of the attacker's messages: the
// step that sent it and the cloud's error, which it wraps. It reads
// "attacker: <step>: <cloud error>". Formatting one with %v or %s writes
// those parts straight into the formatter, so quoting a refusal in a
// verdict builds no string of its own.
type Refusal struct {
	// Step names the message: "forge status", "forge bind", "bind
	// token", "forge unbind type1", "forge unbind type2" or "control".
	Step string
	// Err is the cloud's error.
	Err error
}

func (r *Refusal) Error() string { return "attacker: " + r.Step + ": " + r.Err.Error() }

// Unwrap returns the cloud's error.
func (r *Refusal) Unwrap() error { return r.Err }

// Format implements fmt.Formatter.
func (r *Refusal) Format(f fmt.State, verb rune) {
	if _, width := f.Width(); !width && (verb == 'v' || verb == 's') {
		for _, part := range [...]string{"attacker: ", r.Step, ": ", r.Err.Error()} {
			_, _ = io.WriteString(f, part)
		}
		return
	}
	fmt.Fprintf(f, fmt.FormatString(f, verb), r.Error())
}

// Attacker is a remote adversary against one vendor's cloud.
type Attacker struct {
	userID   string
	password string
	design   core.DesignSpec
	cloud    transport.Cloud

	mu        sync.Mutex
	userToken string
	sessions  map[string]string // deviceID -> session token from forged binds; nil until one returns one, kept (emptied) by Init
	stolen    []protocol.UserData
	// refusals are the Refusals built so far (refuse): a cache, not
	// state, so Init keeps it and CopyFrom leaves it alone.
	refusals map[Refusal]*Refusal
}

// New creates an attacker with their own account credentials. The cloud
// transport must be stamped with the attacker's own network address — the
// adversary cannot spoof the victim's source IP.
func New(userID, password string, design core.DesignSpec, cloud transport.Cloud) (*Attacker, error) {
	a := new(Attacker)
	if err := a.Init(userID, password, design, cloud); err != nil {
		return nil, err
	}
	return a, nil
}

// Init re-initialises a in place as New builds it, keeping only the memory
// of its session map and loot; nothing else may use a meanwhile.
func (a *Attacker) Init(userID, password string, design core.DesignSpec, cloud transport.Cloud) error {
	if err := design.Validate(); err != nil {
		return fmt.Errorf("attacker: %w", err)
	}
	clear(a.sessions)
	*a = Attacker{
		userID:   userID,
		password: password,
		design:   design,
		cloud:    cloud,
		sessions: a.sessions,
		stolen:   a.stolen[:0],
		refusals: a.refusals,
	}
	return nil
}

// CopyFrom makes a a copy of src, field by field but the lock and the
// refusal cache, the session map and the loot in a's own memory; both
// keep the transport they share. Neither may be in use meanwhile.
func (a *Attacker) CopyFrom(src *Attacker) {
	a.userID, a.password, a.design, a.cloud = src.userID, src.password, src.design, src.cloud
	a.userToken = src.userToken
	clear(a.sessions)
	if a.sessions == nil && len(src.sessions) > 0 {
		a.sessions = make(map[string]string, len(src.sessions))
	}
	maps.Copy(a.sessions, src.sessions)
	a.stolen = append(a.stolen[:0], src.stolen...)
}

// UserID returns the attacker's account name.
func (a *Attacker) UserID() string { return a.userID }

// CanForgeDeviceMessages reports whether firmware analysis yielded the
// device-side message formats (Section VI-A: possible for 3 of the 10
// products), that is whether the design's firmware is not opaque.
func (a *Attacker) CanForgeDeviceMessages() bool { return !a.design.FirmwareOpaque }

// Prepare registers (if needed) and logs in the attacker's own account —
// ordinary use of the public cloud API.
func (a *Attacker) Prepare() error {
	err := a.cloud.RegisterUser(protocol.RegisterUserRequest{UserID: a.userID, Password: a.password})
	if err != nil && !errors.Is(err, protocol.ErrUserExists) {
		return fmt.Errorf("attacker: register: %w", err)
	}
	resp, err := a.cloud.Login(protocol.LoginRequest{UserID: a.userID, Password: a.password})
	if err != nil {
		return fmt.Errorf("attacker: login: %w", err)
	}
	a.mu.Lock()
	a.userToken = resp.UserToken
	a.mu.Unlock()
	return nil
}

// ForgeStatus sends a forged device status message carrying only the
// victim's device ID — no device token, signature, or session proof, since
// the adversary has none of those. Any returned user data is recorded as
// stolen (the A1 data-stealing evidence).
func (a *Attacker) ForgeStatus(deviceID string, kind protocol.StatusKind, readings []protocol.Reading) (protocol.StatusResponse, error) {
	if !a.CanForgeDeviceMessages() {
		return protocol.StatusResponse{}, ErrForgeryUnavailable
	}
	resp, err := a.cloud.HandleStatus(protocol.StatusRequest{
		Kind:     kind,
		DeviceID: deviceID,
		Firmware: "forged",
		Readings: readings,
	})
	if err != nil {
		return protocol.StatusResponse{}, a.refuse("forge status", err)
	}
	if len(resp.UserData) > 0 {
		a.mu.Lock()
		a.stolen = append(a.stolen, resp.UserData...)
		a.mu.Unlock()
	}
	return resp, nil
}

// ForgeBind sends a forged binding message that pairs the victim's device
// ID with the attacker's own identity, shaped for the vendor's binding
// mechanism (Figure 4).
func (a *Attacker) ForgeBind(deviceID string) (protocol.BindResponse, error) {
	req := protocol.BindRequest{DeviceID: deviceID}
	switch a.design.Binding {
	case core.BindACLApp:
		tok, err := a.token()
		if err != nil {
			return protocol.BindResponse{}, err
		}
		req.UserToken = tok
		req.Sender = core.SenderApp
	case core.BindACLDevice:
		// The bind message is a device message; forging it needs the
		// reverse-engineered device protocol.
		if !a.CanForgeDeviceMessages() {
			return protocol.BindResponse{}, ErrForgeryUnavailable
		}
		req.UserID = a.userID
		req.UserPassword = a.password
		req.Sender = core.SenderDevice
	case core.BindCapability:
		// Best effort: obtain a bind token for the attacker's own
		// account and submit it without the factory proof the real
		// device would attach.
		tok, err := a.token()
		if err != nil {
			return protocol.BindResponse{}, err
		}
		resp, err := a.cloud.RequestBindToken(protocol.BindTokenRequest{UserToken: tok, DeviceID: deviceID})
		if err != nil {
			return protocol.BindResponse{}, a.refuse("bind token", err)
		}
		req.BindToken = resp.BindToken
		req.BindProof = "forged-proof"
		req.Sender = core.SenderDevice
	default:
		return protocol.BindResponse{}, fmt.Errorf("attacker: unknown binding mechanism %v", a.design.Binding)
	}

	resp, err := a.cloud.HandleBind(req)
	if err != nil {
		return protocol.BindResponse{}, a.refuse("forge bind", err)
	}
	if resp.SessionToken != "" {
		a.mu.Lock()
		if a.sessions == nil {
			a.sessions = make(map[string]string)
		}
		a.sessions[deviceID] = resp.SessionToken
		a.mu.Unlock()
	}
	return resp, nil
}

// ForgeUnbind sends a forged unbinding message of the given form: Type 1
// pairs the victim's device ID with the attacker's own user token; Type 2
// sends the bare device ID (a device message).
func (a *Attacker) ForgeUnbind(deviceID string, form core.UnbindForm) error {
	switch form {
	case core.UnbindDevIDUserToken:
		tok, err := a.token()
		if err != nil {
			return err
		}
		if err := a.cloud.HandleUnbind(protocol.UnbindRequest{
			DeviceID:  deviceID,
			UserToken: tok,
			Sender:    core.SenderApp,
		}); err != nil {
			return a.refuse("forge unbind type1", err)
		}
		return nil
	case core.UnbindDevIDAlone:
		if !a.CanForgeDeviceMessages() {
			return ErrForgeryUnavailable
		}
		if err := a.cloud.HandleUnbind(protocol.UnbindRequest{
			DeviceID: deviceID,
			Sender:   core.SenderDevice,
		}); err != nil {
			return a.refuse("forge unbind type2", err)
		}
		return nil
	default:
		return fmt.Errorf("attacker: unbind form %v not forgeable", form)
	}
}

// Control attempts to command the victim's device using the attacker's own
// user token (plus any session token captured from a forged bind).
func (a *Attacker) Control(deviceID string, cmd protocol.Command) error {
	tok, err := a.token()
	if err != nil {
		return err
	}
	a.mu.Lock()
	session := a.sessions[deviceID]
	a.mu.Unlock()
	resp, err := a.cloud.HandleControl(protocol.ControlRequest{
		DeviceID:     deviceID,
		UserToken:    tok,
		SessionToken: session,
		Command:      cmd,
	})
	if err != nil {
		return a.refuse("control", err)
	}
	if !resp.Queued {
		return errNotQueued
	}
	return nil
}

// StolenData returns the user data captured through forged device
// messages.
func (a *Attacker) StolenData() []protocol.UserData {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]protocol.UserData, len(a.stolen))
	copy(out, a.stolen)
	return out
}

// HasStolen reports whether forged device messages have captured any
// user data, without copying the loot.
func (a *Attacker) HasStolen() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.stolen) > 0
}

// ProbeDeviceID checks whether a candidate ID exists in the vendor's
// registry, distinguishing "unknown device" responses from policy errors —
// the reconnaissance primitive behind ID enumeration.
func (a *Attacker) ProbeDeviceID(deviceID string) (bool, error) {
	_, err := a.cloud.ShadowState(protocol.ShadowStateRequest{DeviceID: deviceID})
	if err == nil {
		return true, nil
	}
	if errors.Is(err, protocol.ErrUnknownDevice) {
		return false, nil
	}
	return false, fmt.Errorf("attacker: probe: %w", err)
}

// SweepResult summarizes an enumeration campaign (the scalable
// denial-of-service of Section V-C).
type SweepResult struct {
	// Tried is the number of candidate IDs attempted.
	Tried uint64
	// Existing are candidates that named real devices.
	Existing []string
	// Occupied are devices whose binding the attacker captured.
	Occupied []string
}

// SweepBindDoS enumerates candidate device IDs from a generator and forges
// a binding for every one that exists, occupying the bindings of an entire
// product range at once.
func (a *Attacker) SweepBindDoS(gen devid.Generator, start, count uint64) (SweepResult, error) {
	var (
		result   SweepResult
		probeErr error
	)
	tried, err := devid.Enumerate(gen, start, count, func(id string) bool {
		exists, err := a.ProbeDeviceID(id)
		if err != nil {
			probeErr = err
			return false
		}
		if !exists {
			return true
		}
		result.Existing = append(result.Existing, id)
		if _, err := a.ForgeBind(id); err == nil {
			result.Occupied = append(result.Occupied, id)
		}
		return true
	})
	result.Tried = tried
	if probeErr != nil {
		return result, probeErr
	}
	return result, err
}

// maxRefusals bounds the Refusals an attacker keeps for reuse; a full
// cache is dropped and started again.
const maxRefusals = 64

// refuse returns the Refusal of step with the cloud's err: the one this
// attacker built before for the same step and error, or a new one, kept
// for the next. A Refusal is never written after it is built, so handing
// one out again is safe, and one of another step or error is another
// pointer. Only a pointer error is kept (a cloud refusal is a sentinel):
// a map key of a type that == cannot compare would panic.
func (a *Attacker) refuse(step string, err error) error {
	if reflect.TypeOf(err).Kind() != reflect.Pointer {
		return &Refusal{step, err}
	}
	key := Refusal{step, err}
	a.mu.Lock()
	defer a.mu.Unlock()
	if kept, ok := a.refusals[key]; ok {
		return kept
	}
	if a.refusals == nil || len(a.refusals) == maxRefusals {
		a.refusals = make(map[Refusal]*Refusal)
	}
	kept := &Refusal{step, err}
	a.refusals[key] = kept
	return kept
}

func (a *Attacker) token() (string, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.userToken == "" {
		return "", errors.New("attacker: not prepared (no user token)")
	}
	return a.userToken, nil
}
