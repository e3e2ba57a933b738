package iotbind

import (
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

// Wire-level message types the commands and examples build by hand
// (Table I shapes).
type (
	// Command is a control instruction.
	Command = protocol.Command
	// LoginRequest authenticates a user.
	LoginRequest = protocol.LoginRequest
	// RegisterUserRequest creates a user account.
	RegisterUserRequest = protocol.RegisterUserRequest
	// ShadowStateRequest inspects a device shadow.
	ShadowStateRequest = protocol.ShadowStateRequest
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

// NewNetwork creates a simulated open LAN with the given public address.
func NewNetwork(name, publicIP string) *Network { return localnet.NewNetwork(name, publicIP) }

// ---- device and app agents -------------------------------------------------

// Device is one emulated IoT device (firmware agent).
type Device = device.Device

// DeviceConfig identifies one manufactured device.
type DeviceConfig = device.Config

// NewDevice creates a device in factory (setup) state.
func NewDevice(cfg DeviceConfig, design DesignSpec, cloudTransport CloudTransport, opts ...device.Option) (*Device, error) {
	return device.New(cfg, design, cloudTransport, opts...)
}

// App is one user's instance of the vendor app.
type App = app.App

// NewApp creates an app for a user account on a home network.
func NewApp(userID, password string, design DesignSpec, cloudTransport CloudTransport, network *Network, opts ...app.Option) (*App, error) {
	return app.New(userID, password, design, cloudTransport, network, opts...)
}

// ---- attacker ---------------------------------------------------------------

// Attacker is the paper's remote adversary: ordinary cloud access, their
// own account, a leaked device ID, and no LAN access.
type Attacker = attacker.Attacker

// NewAttacker creates a remote attacker with their own account.
func NewAttacker(userID, password string, design DesignSpec, cloudTransport CloudTransport) (*Attacker, error) {
	return attacker.New(userID, password, design, cloudTransport)
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

// EvaluateAll runs every Table II variant against the design, on one
// testbed reset in place before each variant, and classifies each outcome
// as the paper does.
func EvaluateAll(design DesignSpec, opts ...testbed.Option) ([]AttackResult, error) {
	return testbed.EvaluateAll(design, opts...)
}

// ---- HTTP front end -----------------------------------------------------------

// HTTPServer exposes a cloud as an HTTP/JSON service; it is an
// http.Handler.
type HTTPServer = httpapi.Server

// HTTPClient talks to an HTTPServer and implements CloudTransport.
type HTTPClient = httpapi.Client

// NewHTTPServer wraps a cloud in the HTTP front end.
func NewHTTPServer(c CloudTransport) *HTTPServer { return httpapi.NewServer(c) }

// NewHTTPClient creates a client for the cloud served at baseURL.
func NewHTTPClient(baseURL string) *HTTPClient {
	return httpapi.NewClient(baseURL)
}
