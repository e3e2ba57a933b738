// Package protocol defines the wire-level messages exchanged between the
// IoT device, the user's app, and the cloud, together with the error
// vocabulary the cloud answers with. The message shapes mirror Table I and
// Figures 3-4 of the paper: status (registration/heartbeat) messages from
// the device, binding and unbinding messages from the app or the device,
// control messages from the user, and the credential-issuing requests that
// precede them.
//
// Every request type is a plain struct so it can travel both through the
// in-process transport and as JSON over the HTTP front end.
package protocol

import (
	"errors"
	"time"

	"github.com/iotbind/iotbind/internal/core"
)

// StatusKind distinguishes the two status-message flavours. Both mark the
// device online (the state machine treats them identically); clouds with
// session-tied bindings react differently to fresh registrations.
type StatusKind int

// Status kinds.
const (
	// StatusRegister is the boot-time registration message.
	StatusRegister StatusKind = iota + 1
	// StatusHeartbeat is the periodic keep-alive, optionally carrying
	// sensor readings.
	StatusHeartbeat
)

// String implements fmt.Stringer.
func (k StatusKind) String() string {
	switch k {
	case StatusRegister:
		return "register"
	case StatusHeartbeat:
		return "heartbeat"
	default:
		return "unknown"
	}
}

// Held names a kind of request string the cloud holds its own copy of
// (transport.Canonical): a device ID (the registry's), a credential (the
// token issuer's), an account ID (the account store's) or a reading's or
// a command's name (the service's one name table) — or, HeldCall, one it
// keeps only by copying: an idempotency key, or any source address but a
// registration's, which the cloud reads only during the call.
type Held uint8

// Held kinds.
const (
	HeldDevice Held = iota
	HeldCred
	HeldAccount
	HeldName
	HeldCall
)

// Reading is one sensor sample reported by a device.
type Reading struct {
	// Name is the metric name, e.g. "power_w" or "temperature_c".
	Name string `json:"name"`
	// Value is the sample value.
	Value float64 `json:"value"`
	// At is the sample time.
	At time.Time `json:"at"`
}

// Command is a control instruction relayed from the bound user to the
// device.
type Command struct {
	// ID is a client-chosen identifier used to match acknowledgements.
	ID string `json:"id"`
	// Name is the operation, e.g. "turn_on".
	Name string `json:"name"`
	// Args carries operation parameters.
	Args map[string]string `json:"args,omitempty"`
}

// UserData is a piece of user-origin state delivered to the device, e.g. a
// smart-plug schedule. Receiving another user's UserData is the
// data-stealing half of attack A1.
type UserData struct {
	// Kind labels the payload, e.g. "schedule".
	Kind string `json:"kind"`
	// Body is the payload content.
	Body string `json:"body"`
}

// StatusRequest is a device status message (Table I: Status). Depending on
// the vendor's design it authenticates with the static device ID, a dynamic
// device token, or a factory-key signature.
type StatusRequest struct {
	// Kind is register or heartbeat.
	Kind StatusKind `json:"kind"`
	// DeviceID is the device identifier (always present; it routes the
	// message to a shadow).
	DeviceID string `json:"device_id"`
	// DevToken is the dynamic device token (AuthDevToken designs).
	DevToken string `json:"dev_token,omitempty"`
	// Signature is an HMAC over the device ID under the factory secret
	// (AuthPublicKey designs).
	Signature string `json:"signature,omitempty"`
	// SessionToken is the post-binding token (designs with
	// PostBindingToken), delivered to the device by the app after bind.
	SessionToken string `json:"session_token,omitempty"`
	// DataProof authenticates data-bearing messages in designs with
	// DataRequiresSession: an HMAC of the register-time session nonce
	// under the factory secret.
	DataProof string `json:"data_proof,omitempty"`
	// ButtonPressed reports a physical button press (opens the binding
	// window in BindButtonWindow designs).
	ButtonPressed bool `json:"button_pressed,omitempty"`
	// Firmware and Model are the attributes the device reports.
	Firmware string `json:"firmware,omitempty"`
	Model    string `json:"model,omitempty"`
	// Readings are sensor samples piggybacked on the message.
	Readings []Reading `json:"readings,omitempty"`
	// IdempotencyKey, when present, identifies this logical status message
	// across transport-level redeliveries, like BindRequest.IdempotencyKey:
	// the cloud records the response of an accepted status under the key and
	// replays it verbatim for a retried delivery, so commands drained by a
	// delivery whose response was lost are not lost with it and piggybacked
	// readings are never ingested twice. Empty disables deduplication
	// (bare online-marking is naturally idempotent).
	IdempotencyKey string `json:"idempotency_key,omitempty"`
	// SourceIP is the observed source address (set by the transport, not
	// the sender).
	SourceIP string `json:"-"`
}

// StatusResponse is the cloud's answer to a status message.
type StatusResponse struct {
	// Bound reports whether the device is currently bound.
	Bound bool `json:"bound"`
	// SessionNonce is issued on registration in DataRequiresSession
	// designs; data messages must prove HMAC(factorySecret, nonce).
	SessionNonce string `json:"session_nonce,omitempty"`
	// Commands are pending control instructions for the device.
	Commands []Command `json:"commands,omitempty"`
	// UserData is pending user state for the device (the data-stealing
	// target of A1).
	UserData []UserData `json:"user_data,omitempty"`
}

// BindRequest is a binding-creation message (Table I: Bind). Exactly one
// credential combination is used depending on the design: UserToken for
// app-initiated ACL binding, UserID/UserPassword for device-initiated ACL
// binding, BindToken (+BindProof) for capability binding.
type BindRequest struct {
	// DeviceID identifies the device to bind.
	DeviceID string `json:"device_id"`
	// UserToken is the app-initiated ACL credential.
	UserToken string `json:"user_token,omitempty"`
	// UserID and UserPassword are the device-initiated ACL credentials.
	UserID       string `json:"user_id,omitempty"`
	UserPassword string `json:"user_password,omitempty"`
	// BindToken is the capability credential issued by the cloud to the
	// user and delivered to the device locally.
	BindToken string `json:"bind_token,omitempty"`
	// BindProof authenticates the capability submission as coming from
	// the real device: HMAC(factorySecret, bindToken).
	BindProof string `json:"bind_proof,omitempty"`
	// Sender reports which party claims to send the message.
	Sender core.Sender `json:"sender"`
	// IdempotencyKey, when present, identifies this logical request across
	// transport-level redeliveries: the cloud records the response of an
	// accepted bind under the key and replays it verbatim for a retried
	// delivery instead of executing the binding again. Empty disables
	// deduplication.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
	// SourceIP is the observed source address.
	SourceIP string `json:"-"`
}

// BindResponse is the cloud's answer to an accepted binding.
type BindResponse struct {
	// BoundUser is the account now bound to the device.
	BoundUser string `json:"bound_user"`
	// SessionToken is the post-binding random token (PostBindingToken
	// designs), returned to the binder, who must present it on control
	// messages and deliver it to the device locally.
	SessionToken string `json:"session_token,omitempty"`
}

// UnbindRequest is a binding-revocation message (Table I: Unbind). An
// empty UserToken is the Type 2 form (Unbind : DevId).
type UnbindRequest struct {
	// DeviceID identifies the device to unbind.
	DeviceID string `json:"device_id"`
	// UserToken is present in the Type 1 form.
	UserToken string `json:"user_token,omitempty"`
	// Sender reports which party claims to send the message.
	Sender core.Sender `json:"sender"`
	// IdempotencyKey identifies this logical revocation across
	// redeliveries, like BindRequest.IdempotencyKey: a retried unbind
	// whose first delivery already revoked the binding reports success
	// instead of ErrNotBound. Empty disables deduplication.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
	// SourceIP is the observed source address.
	SourceIP string `json:"-"`
}

// ControlRequest asks the cloud to relay a command to a bound device.
type ControlRequest struct {
	DeviceID string `json:"device_id"`
	// UserToken authenticates the user.
	UserToken string `json:"user_token"`
	// SessionToken is required by PostBindingToken designs.
	SessionToken string `json:"session_token,omitempty"`
	// Command is the instruction to relay.
	Command Command `json:"command"`
	// SourceIP is the observed source address.
	SourceIP string `json:"-"`
}

// ControlResponse acknowledges a queued command.
type ControlResponse struct {
	// Queued reports that the command was accepted for relay.
	Queued bool `json:"queued"`
}

// ShareRequest grants another account guest access to a bound device
// (the many-to-one binding of Section III-B, "device sharing"). Only the
// bound owner can grant or revoke shares; guests can control the device
// and read its data but cannot unbind, share, or push state.
type ShareRequest struct {
	DeviceID string `json:"device_id"`
	// UserToken authenticates the granting owner.
	UserToken string `json:"user_token"`
	// Guest is the account receiving (or losing) access.
	Guest string `json:"guest"`
	// Revoke withdraws a previous grant instead of adding one.
	Revoke bool `json:"revoke,omitempty"`
}

// DelegateRequest creates a scoped, expiring delegation grant on a bound
// device: the grantor (the bound owner, or a grantee holding the share
// scope with re-delegation depth left) hands the grantee a subset of
// their authority. The cloud records the grant in the device's
// delegation lattice and mints a DelegationToken from it.
type DelegateRequest struct {
	DeviceID string `json:"device_id"`
	// UserToken authenticates the grantor.
	UserToken string `json:"user_token"`
	// Grantee is the account receiving the grant.
	Grantee string `json:"grantee"`
	// Scopes names the granted capabilities: "control", "read", "share".
	Scopes []string `json:"scopes"`
	// TTLSeconds bounds the grant's lifetime from the cloud's clock at
	// acceptance; zero means no expiry of its own (chain expiry still
	// applies).
	TTLSeconds int64 `json:"ttl_seconds,omitempty"`
	// Depth is the re-delegation budget handed to the grantee: how many
	// further links they may append under the grant (0 = none).
	Depth int `json:"depth,omitempty"`
	// IdempotencyKey identifies this logical grant across transport
	// redeliveries, like BindRequest.IdempotencyKey.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// DelegateResponse carries the minted delegation token.
type DelegateResponse struct {
	// DelegationToken is the scoped expiring credential minted from the
	// grant; the grantee may present it in place of a user token on
	// control and readings requests.
	DelegationToken string `json:"delegation_token"`
	// ExpiresAt is the grant's expiry (zero when the grant has none).
	ExpiresAt time.Time `json:"expires_at,omitempty"`
}

// RevokeDelegationRequest withdraws a grant. Revocation cascades: every
// grant derived from the revoked one is severed atomically with it.
type RevokeDelegationRequest struct {
	DeviceID string `json:"device_id"`
	// UserToken authenticates the revoker: the bound owner or the
	// grant's direct grantor.
	UserToken string `json:"user_token"`
	// Grantee is the account losing the grant (and, transitively, every
	// account holding a grant derived from it).
	Grantee string `json:"grantee"`
	// IdempotencyKey identifies this logical revocation across
	// redeliveries: a redelivered revoke replays its recorded outcome
	// instead of severing a grant issued after the first delivery.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// ListDelegationsRequest lists a device's delegation grants. The bound
// owner sees every grant; any other authenticated account sees only the
// grants it holds or made.
type ListDelegationsRequest struct {
	DeviceID  string `json:"device_id"`
	UserToken string `json:"user_token"`
}

// DelegationInfo is one grant as reported by ListDelegations.
type DelegationInfo struct {
	Grantor string `json:"grantor"`
	Grantee string `json:"grantee"`
	// Scopes are the granted capability names, sorted.
	Scopes []string `json:"scopes"`
	// ExpiresAt is the grant's own expiry (zero means none).
	ExpiresAt time.Time `json:"expires_at,omitempty"`
	// Depth is the grantee's remaining re-delegation budget.
	Depth int `json:"depth,omitempty"`
}

// ListDelegationsResponse carries the visible grants, sorted by grantee.
type ListDelegationsResponse struct {
	Grants []DelegationInfo `json:"grants"`
}

// SharesRequest lists a device's guests, as the owner sees them.
type SharesRequest struct {
	DeviceID  string `json:"device_id"`
	UserToken string `json:"user_token"`
}

// SharesResponse carries the guest list.
type SharesResponse struct {
	Guests []string `json:"guests"`
}

// RegisterUserRequest creates a user account.
type RegisterUserRequest struct {
	UserID   string `json:"user_id"`
	Password string `json:"password"`
}

// LoginRequest authenticates a user (password scheme, Section II-B).
type LoginRequest struct {
	UserID   string `json:"user_id"`
	Password string `json:"password"`
}

// LoginResponse carries the issued user token.
type LoginResponse struct {
	UserToken string `json:"user_token"`
}

// DeviceTokenRequest asks the cloud for a dynamic device token
// (AuthDevToken designs, Figure 3 Type 1). PairingProof demonstrates local
// possession of the device: the device reveals it over the local network
// while in setup mode, so a remote attacker cannot obtain one.
type DeviceTokenRequest struct {
	UserToken    string `json:"user_token"`
	DeviceID     string `json:"device_id"`
	PairingProof string `json:"pairing_proof"`
}

// DeviceTokenResponse carries the issued device token.
type DeviceTokenResponse struct {
	DevToken string `json:"dev_token"`
}

// BindTokenRequest asks the cloud for a capability binding token
// (Figure 4c).
type BindTokenRequest struct {
	UserToken string `json:"user_token"`
	DeviceID  string `json:"device_id"`
}

// BindTokenResponse carries the issued bind token.
type BindTokenResponse struct {
	BindToken string `json:"bind_token"`
}

// PushUserDataRequest stores user state to be delivered to the device
// (e.g. a schedule).
type PushUserDataRequest struct {
	DeviceID  string   `json:"device_id"`
	UserToken string   `json:"user_token"`
	Data      UserData `json:"data"`
}

// ReadingsRequest fetches the readings the cloud has accepted from the
// device, as the bound user sees them.
type ReadingsRequest struct {
	DeviceID  string `json:"device_id"`
	UserToken string `json:"user_token"`
}

// ReadingsResponse carries the device's reported readings.
type ReadingsResponse struct {
	Readings []Reading `json:"readings"`
}

// ShadowStateRequest inspects a device shadow (a diagnostic/evaluation
// operation, not part of any vendor API).
type ShadowStateRequest struct {
	DeviceID string `json:"device_id"`
}

// ShadowStateResponse reports the shadow's state-machine position and
// bound user.
type ShadowStateResponse struct {
	State     core.ShadowState `json:"state"`
	BoundUser string           `json:"bound_user"`
}

// Cloud error vocabulary. The HTTP front end maps these onto status codes;
// the attacker toolkit uses them to classify failures.
var (
	// ErrAuthFailed covers bad passwords, bad tokens, bad signatures and
	// bad proofs.
	ErrAuthFailed = errors.New("protocol: authentication failed")
	// ErrUnknownDevice is returned for device IDs absent from the vendor
	// registry.
	ErrUnknownDevice = errors.New("protocol: unknown device")
	// ErrAlreadyBound is returned when a bind targets a device bound to
	// another user and the design checks for it.
	ErrAlreadyBound = errors.New("protocol: device already bound")
	// ErrNotBound is returned when an operation requires a binding that
	// does not exist.
	ErrNotBound = errors.New("protocol: device not bound")
	// ErrNotPermitted is returned when the authenticated party lacks
	// permission for the operation (e.g. unbinding another user's
	// device under a checking design).
	ErrNotPermitted = errors.New("protocol: operation not permitted")
	// ErrUnsupported is returned when the vendor design does not offer
	// the requested operation (e.g. Type 2 unbind on a Type 1 cloud).
	ErrUnsupported = errors.New("protocol: operation not supported by design")
	// ErrOutsideWindow is returned when a bind misses the physical-button
	// window or fails the source-IP co-location check.
	ErrOutsideWindow = errors.New("protocol: binding window closed or co-location check failed")
	// ErrDeviceOffline is returned when a control command targets an
	// offline device.
	ErrDeviceOffline = errors.New("protocol: device offline")
	// ErrBadRequest covers malformed requests.
	ErrBadRequest = errors.New("protocol: bad request")
	// ErrPayloadTooLarge is returned when a request body exceeds a front
	// end's size limit. It is not retryable: resending the same payload
	// can never succeed.
	ErrPayloadTooLarge = errors.New("protocol: payload too large")
	// ErrUserExists is returned when registering a taken user ID.
	ErrUserExists = errors.New("protocol: user already exists")
	// ErrBackpressure is returned by the binary front end when a sender
	// overruns its advertised credit window — more requests in flight on
	// one connection than the server agreed to buffer. Well-behaved
	// clients never see it (the binapi client blocks on its credit
	// semaphore instead); receiving it means the sender is ignoring the
	// window, and the correct reaction is to drain responses before
	// sending more, not to retry blindly.
	ErrBackpressure = errors.New("protocol: connection credit window exceeded")
)
