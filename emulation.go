package iotbind

import (
	"net/http"
	"time"

	"github.com/iotbind/iotbind/internal/app"
	"github.com/iotbind/iotbind/internal/attacker"
	"github.com/iotbind/iotbind/internal/cloud"
	"github.com/iotbind/iotbind/internal/device"
	"github.com/iotbind/iotbind/internal/httpapi"
	"github.com/iotbind/iotbind/internal/localnet"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/testbed"
	"github.com/iotbind/iotbind/internal/transport"
)

// ---- wire messages -------------------------------------------------------

// Wire-level message and payload types shared by the cloud, device, app
// and attacker (Table I shapes).
type (
	// StatusRequest is a device status (registration/heartbeat) message.
	StatusRequest = protocol.StatusRequest
	// StatusResponse is the cloud's answer to a status message.
	StatusResponse = protocol.StatusResponse
	// StatusBatchRequest carries several coalesced status messages as one
	// wire message.
	StatusBatchRequest = protocol.StatusBatchRequest
	// StatusBatchResponse answers a batch with per-item results.
	StatusBatchResponse = protocol.StatusBatchResponse
	// StatusBatchResult is one item's outcome inside a batch response.
	StatusBatchResult = protocol.StatusBatchResult
	// BindRequest is a binding-creation message.
	BindRequest = protocol.BindRequest
	// BindResponse acknowledges an accepted binding.
	BindResponse = protocol.BindResponse
	// UnbindRequest is a binding-revocation message.
	UnbindRequest = protocol.UnbindRequest
	// ControlRequest relays a user command to a bound device.
	ControlRequest = protocol.ControlRequest
	// Command is a control instruction.
	Command = protocol.Command
	// Reading is one sensor sample.
	Reading = protocol.Reading
	// UserData is user-origin state delivered to the device.
	UserData = protocol.UserData
	// StatusKind distinguishes registrations from heartbeats.
	StatusKind = protocol.StatusKind
	// ShadowStateRequest inspects a device shadow.
	ShadowStateRequest = protocol.ShadowStateRequest
	// ShadowStateResponse reports a shadow's state and bound user.
	ShadowStateResponse = protocol.ShadowStateResponse
	// LoginRequest authenticates a user.
	LoginRequest = protocol.LoginRequest
	// RegisterUserRequest creates a user account.
	RegisterUserRequest = protocol.RegisterUserRequest
	// DeviceTokenRequest asks for a dynamic device token (Figure 3 Type 1).
	DeviceTokenRequest = protocol.DeviceTokenRequest
	// BindTokenRequest asks for a capability binding token (Figure 4c).
	BindTokenRequest = protocol.BindTokenRequest
	// ShareRequest grants or revokes guest access (many-to-one binding).
	ShareRequest = protocol.ShareRequest
	// SharesRequest lists a device's guests.
	SharesRequest = protocol.SharesRequest
	// DelegateRequest creates a scoped, expiring, depth-limited grant in
	// a device's delegation lattice.
	DelegateRequest = protocol.DelegateRequest
	// DelegateResponse carries the minted delegation token.
	DelegateResponse = protocol.DelegateResponse
	// RevokeDelegationRequest withdraws a grant (cascading per design).
	RevokeDelegationRequest = protocol.RevokeDelegationRequest
	// ListDelegationsRequest lists a device's delegation grants.
	ListDelegationsRequest = protocol.ListDelegationsRequest
	// ListDelegationsResponse carries the visible grants.
	ListDelegationsResponse = protocol.ListDelegationsResponse
	// DelegationInfo is one grant as reported by ListDelegations.
	DelegationInfo = protocol.DelegationInfo
	// ReadingsRequest fetches a device's reported readings as a user.
	ReadingsRequest = protocol.ReadingsRequest
	// ReadingsResponse carries the readings.
	ReadingsResponse = protocol.ReadingsResponse
)

// Proof helpers derive the credentials only the real firmware (holding the
// factory secret) can compute; device implementations use them to
// authenticate to clouds with the corresponding designs.
var (
	// PairingProof is the local-pairing proof a device in setup mode
	// reveals over the LAN.
	PairingProof = protocol.PairingProof
	// StatusSignature is the per-message signature of public-key designs.
	StatusSignature = protocol.StatusSignature
	// DataProof authenticates in-session data messages.
	DataProof = protocol.DataProof
	// BindProof ties a capability bind token to the real device.
	BindProof = protocol.BindProof
)

// Status-message kinds.
const (
	StatusRegister  = protocol.StatusRegister
	StatusHeartbeat = protocol.StatusHeartbeat
)

// Cloud-side protocol errors, usable with errors.Is on every transport.
var (
	ErrAuthFailed    = protocol.ErrAuthFailed
	ErrUnknownDevice = protocol.ErrUnknownDevice
	ErrAlreadyBound  = protocol.ErrAlreadyBound
	ErrNotBound      = protocol.ErrNotBound
	ErrNotPermitted  = protocol.ErrNotPermitted
	ErrUnsupported   = protocol.ErrUnsupported
)

// ---- cloud ---------------------------------------------------------------

// Cloud is one vendor's emulated IoT cloud.
type Cloud = cloud.Service

// CloudOption configures a Cloud.
type CloudOption = cloud.Option

// Registry is the vendor's database of manufactured devices.
type Registry = cloud.Registry

// DeviceRecord is one manufactured device's provisioning record.
type DeviceRecord = cloud.DeviceRecord

// NewRegistry returns an empty manufacturer registry.
func NewRegistry() *Registry { return cloud.NewRegistry() }

// NewCloud builds an emulated vendor cloud enforcing the given design.
func NewCloud(design DesignSpec, registry *Registry, opts ...CloudOption) (*Cloud, error) {
	return cloud.NewService(design, registry, opts...)
}

// WithCloudClock injects a clock into the cloud, for deterministic runs.
func WithCloudClock(now func() time.Time) CloudOption { return cloud.WithClock(now) }

// CloudTransport is the client-side interface every agent uses to reach a
// cloud: implemented in-process by *Cloud and over the wire by HTTPClient.
type CloudTransport = transport.Cloud

// StampSource wraps a transport so every request carries the given public
// source address (the network a party sits on assigns it; senders cannot
// forge it).
func StampSource(c CloudTransport, ip string) CloudTransport {
	return transport.StampSource(c, ip)
}

// ---- local network ---------------------------------------------------------

// Network is one simulated home LAN behind a single public address.
type Network = localnet.Network

// Announcement is a device's SSDP-style self-description.
type Announcement = localnet.Announcement

// Provisioning is the configuration an app delivers to a device locally.
type Provisioning = localnet.Provisioning

// NewNetwork creates a simulated open LAN with the given public address.
func NewNetwork(name, publicIP string) *Network { return localnet.NewNetwork(name, publicIP) }

// NewProtectedNetwork creates a WPA2-protected LAN: devices join only
// when provisioned with the matching SSID and passphrase.
func NewProtectedNetwork(name, publicIP, ssid, passphrase string) *Network {
	return localnet.NewProtectedNetwork(name, publicIP, ssid, passphrase)
}

// ---- device and app agents -------------------------------------------------

// Device is one emulated IoT device (firmware agent).
type Device = device.Device

// DeviceConfig identifies one manufactured device.
type DeviceConfig = device.Config

// NewDevice creates a device in factory (setup) state.
func NewDevice(cfg DeviceConfig, design DesignSpec, cloudTransport CloudTransport, opts ...device.Option) (*Device, error) {
	return device.New(cfg, design, cloudTransport, opts...)
}

// WithDeviceBatching makes a device coalesce heartbeats into StatusBatch
// messages: the queue flushes at n messages or when its oldest entry is
// flushInterval old (zero disables the age trigger). See device.WithBatching.
func WithDeviceBatching(n int, flushInterval time.Duration) device.Option {
	return device.WithBatching(n, flushInterval)
}

// App is one user's instance of the vendor app.
type App = app.App

// UserActions models the physical actions setup instructs the user to
// perform (button presses, factory resets).
type UserActions = app.UserActions

// NewApp creates an app for a user account on a home network.
func NewApp(userID, password string, design DesignSpec, cloudTransport CloudTransport, network *Network, opts ...app.Option) (*App, error) {
	return app.New(userID, password, design, cloudTransport, network, opts...)
}

// ---- attacker ---------------------------------------------------------------

// Attacker is the paper's remote adversary: ordinary cloud access, their
// own account, a leaked device ID, and no LAN access.
type Attacker = attacker.Attacker

// ErrForgeryUnavailable marks attacks that need device-protocol knowledge
// the adversary lacks (reported as "O" in Table III).
var ErrForgeryUnavailable = attacker.ErrForgeryUnavailable

// NewAttacker creates a remote attacker with their own account.
func NewAttacker(userID, password string, design DesignSpec, cloudTransport CloudTransport, opts ...attacker.Option) (*Attacker, error) {
	return attacker.New(userID, password, design, cloudTransport, opts...)
}

// ---- testbed ------------------------------------------------------------------

// Testbed wires a vendor cloud, the victim's home (device + app) and a
// remote attacker into one deterministic experiment rig.
type Testbed = testbed.Testbed

// AttackResult is the classified outcome of one attack experiment.
type AttackResult = testbed.Result

// VendorResult is one vendor's measured Table III row.
type VendorResult = testbed.VendorResult

// NewTestbed builds an experiment rig for a design.
func NewTestbed(design DesignSpec, opts ...testbed.Option) (*Testbed, error) {
	return testbed.New(design, opts...)
}

// WithDeviceID overrides the victim's device ID in a testbed.
func WithDeviceID(id string) testbed.Option { return testbed.WithDeviceID(id) }

// Evaluate runs one attack variant against a fresh testbed for the design
// and classifies the outcome as the paper does.
func Evaluate(design DesignSpec, v AttackVariant, opts ...testbed.Option) (AttackResult, error) {
	return testbed.Evaluate(design, v, opts...)
}

// EvaluateAll runs every Table II variant against the design.
func EvaluateAll(design DesignSpec, opts ...testbed.Option) ([]AttackResult, error) {
	return testbed.EvaluateAll(design, opts...)
}

// ---- fleet load generation ----------------------------------------------------

// FleetLoadConfig parameterizes a status-path load run: N devices × M
// heartbeats through a wire front end, per-message or coalesced.
type FleetLoadConfig = testbed.FleetLoadConfig

// FleetLoadResult reports a load run's throughput.
type FleetLoadResult = testbed.FleetLoadResult

// FleetFrontEnd selects the wire front end a fleet load run drives.
type FleetFrontEnd = testbed.FleetFrontEnd

// The wire front ends RunFleetLoad can drive.
const (
	FleetFrontEndHTTP = testbed.FleetFrontEndHTTP
	FleetFrontEndBin  = testbed.FleetFrontEndBin
)

// RunFleetLoad drives a fleet of heartbeating devices through a real
// network front end and reports messages/s.
func RunFleetLoad(cfg FleetLoadConfig) (FleetLoadResult, error) {
	return testbed.RunFleetLoad(cfg)
}

// ---- HTTP front end -----------------------------------------------------------

// HTTPServer exposes a cloud as an HTTP/JSON service.
type HTTPServer = httpapi.Server

// HTTPClient talks to an HTTPServer and implements CloudTransport.
type HTTPClient = httpapi.Client

// NewHTTPServer wraps a cloud in the HTTP front end; the result is an
// http.Handler.
func NewHTTPServer(c CloudTransport) *HTTPServer { return httpapi.NewServer(c) }

// NewHTTPClient creates a client for the cloud served at baseURL.
func NewHTTPClient(baseURL string, opts ...httpapi.ClientOption) *HTTPClient {
	return httpapi.NewClient(baseURL, opts...)
}

var _ http.Handler = (*HTTPServer)(nil)
