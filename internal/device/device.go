// Package device emulates the firmware of an IoT device as it participates
// in remote binding: local setup mode (discovery and provisioning), cloud
// registration and heartbeats under the vendor's device-authentication
// design, device-initiated binding where the design calls for it, command
// execution, and factory reset.
//
// The agent is deliberately passive — no background goroutines. The testbed
// (or an example program) drives Activate and Heartbeat explicitly, which
// keeps every experiment deterministic.
package device

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/localnet"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/retry"
	"github.com/iotbind/iotbind/internal/transport"
)

// Errors returned by the device agent.
var (
	// ErrNotProvisioned is returned when activating a device that has no
	// Wi-Fi configuration yet.
	ErrNotProvisioned = errors.New("device: not provisioned")
	// errNoCloud is returned when the device has no transport attached.
	errNoCloud = errors.New("device: no cloud transport attached")
)

// firmwareVersion is the firmware version the device reports.
const firmwareVersion = "1.0.0"

// Device is one emulated IoT device.
type Device struct {
	id            string
	factorySecret string
	localName     string
	model         string
	design        core.DesignSpec

	mu          sync.Mutex
	cloud       transport.Cloud
	setupMode   bool
	provisioned bool
	resetNotify bool
	active      bool

	devToken     string
	sessionToken string
	sessionNonce string
	bindUserID   string
	bindUserPw   string
	bindToken    string
	// pairingProof is what Announce reveals in setup mode, derived by the
	// first announcement and kept while the ID and secret are unchanged.
	pairingProof string
	// beatSignature is a heartbeat's status signature (AuthPublicKey
	// designs), kept like pairingProof; dataProof proves sessionNonce
	// (DataRequiresSession designs), derived by the first heartbeat after
	// the nonce changes.
	beatSignature string
	dataProof     string

	pendingReadings []protocol.Reading
	executed        []protocol.Command
	received        []protocol.UserData

	now         func() time.Time
	retryPolicy *retry.Policy
	retrier     *retry.Transport
}

var _ localnet.Responder = (*Device)(nil)

// Option configures a Device.
type Option interface {
	apply(*Device)
}

type optionFunc func(*Device)

func (f optionFunc) apply(d *Device) { f(d) }

// clockOption is the clock itself: a func value boxes into an Option
// without the closure an optionFunc would allocate per testbed.
type clockOption func() time.Time

func (now clockOption) apply(d *Device) { d.now = now }

// WithClock injects a clock for reading timestamps.
func WithClock(now func() time.Time) Option { return clockOption(now) }

// WithRetry makes the device re-send failed cloud calls under the policy
// (see package retry): heartbeats, registrations, binds and unbinds
// recover from transient transport failures instead of surfacing them.
// Close aborts any in-flight backoff wait.
func WithRetry(p retry.Policy) Option {
	return optionFunc(func(d *Device) { d.retryPolicy = &p })
}

// Config identifies one manufactured device.
type Config struct {
	// ID is the device identifier (matches the vendor registry).
	ID string
	// FactorySecret is the provisioning key material (matches the vendor
	// registry).
	FactorySecret string
	// LocalName is the device's name on the LAN.
	LocalName string
	// Model is the reported model name.
	Model string
}

// New creates a device in factory state (setup mode). The cloud transport
// must be the one stamped with the device's home network address.
func New(cfg Config, design core.DesignSpec, cloud transport.Cloud, opts ...Option) (*Device, error) {
	d := new(Device)
	if err := d.Init(cfg, design, cloud, opts...); err != nil {
		return nil, err
	}
	return d, nil
}

// Init re-initialises d in place as New builds it, keeping only the memory
// of its command and data logs; nothing else may use d meanwhile. Unlike
// Reset, the factory reset, it leaves no reset notification for the cloud.
func (d *Device) Init(cfg Config, design core.DesignSpec, cloud transport.Cloud, opts ...Option) error {
	if err := design.Validate(); err != nil {
		return fmt.Errorf("device: %w", err)
	}
	if cfg.ID == "" || cfg.LocalName == "" {
		return fmt.Errorf("device: %w", errors.New("missing ID or local name"))
	}
	proof, signature := d.pairingProof, d.beatSignature
	if cfg.ID != d.id || cfg.FactorySecret != d.factorySecret {
		proof, signature = "", ""
	}
	*d = Device{
		id:            cfg.ID,
		factorySecret: cfg.FactorySecret,
		localName:     cfg.LocalName,
		model:         cfg.Model,
		design:        design,
		cloud:         cloud,
		setupMode:     true,
		pairingProof:  proof,
		beatSignature: signature,
		executed:      d.executed[:0],
		received:      d.received[:0],
		now:           time.Now,
	}
	for _, o := range opts {
		o.apply(d)
	}
	if d.retryPolicy != nil && d.cloud != nil {
		d.retrier = retry.Wrap(d.cloud, *d.retryPolicy)
		d.cloud = d.retrier
	}
	return nil
}

// CopyFrom makes d a copy of src, field by field but the lock: the
// tokens, the setup flags, the queued readings, and the command
// and data logs, the lists in d's own memory so that neither device sees
// what the other does next (an empty list may come out nil). Both keep
// the transport, clock and retrier they share. Neither may be in use
// meanwhile.
func (d *Device) CopyFrom(src *Device) {
	d.id, d.factorySecret, d.localName, d.model = src.id, src.factorySecret, src.localName, src.model
	d.design, d.cloud = src.design, src.cloud
	d.setupMode, d.provisioned, d.resetNotify, d.active = src.setupMode, src.provisioned, src.resetNotify, src.active
	d.devToken, d.sessionToken, d.sessionNonce = src.devToken, src.sessionToken, src.sessionNonce
	d.bindUserID, d.bindUserPw, d.bindToken, d.pairingProof = src.bindUserID, src.bindUserPw, src.bindToken, src.pairingProof
	d.beatSignature, d.dataProof = src.beatSignature, src.dataProof
	d.pendingReadings = append(d.pendingReadings[:0], src.pendingReadings...)
	d.executed = append(d.executed[:0], src.executed...)
	d.received = append(d.received[:0], src.received...)
	d.now, d.retryPolicy, d.retrier = src.now, src.retryPolicy, src.retrier
}

// Close releases the agent's transport-side resources: an in-flight retry
// backoff is aborted and no further retries are attempted. The device
// itself stays usable (each call still gets one delivery attempt), so a
// powered-off emulated device can simply stop being driven.
func (d *Device) Close() {
	d.mu.Lock()
	r := d.retrier
	d.mu.Unlock()
	if r != nil {
		r.Close()
	}
}

// ID returns the device identifier — the value printed on the label that
// the paper's adversary obtains through ownership transfer or enumeration.
func (d *Device) ID() string { return d.id }

// LocalName implements localnet.Responder.
func (d *Device) LocalName() string { return d.localName }

// InSetupMode reports whether the device accepts initial provisioning.
func (d *Device) InSetupMode() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.setupMode
}

// Active reports whether the device has registered with the cloud.
func (d *Device) Active() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.active
}

// Announce implements localnet.Responder: the SSDP-style self-description.
// The pairing proof is revealed only in setup mode.
func (d *Device) Announce() (localnet.Announcement, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	ann := localnet.Announcement{
		LocalName: d.localName,
		DeviceID:  d.id,
		Model:     d.model,
		SetupMode: d.setupMode,
	}
	if d.setupMode {
		if d.pairingProof == "" {
			d.pairingProof = protocol.PairingProof(d.factorySecret, d.id)
		}
		ann.PairingProof = d.pairingProof
	}
	return ann, true
}

// Provision implements localnet.Responder: it stores delivered
// configuration, merging non-empty fields so the app can deliver the
// post-binding session token in a second exchange. Receiving Wi-Fi
// credentials ends setup mode and connects the device to the cloud, like
// real firmware does as soon as it joins the network.
func (d *Device) Provision(p localnet.Provisioning) error {
	d.mu.Lock()
	join := p.WiFiSSID != ""
	if join {
		d.provisioned = true
		d.setupMode = false
	}
	if p.DevToken != "" {
		d.devToken = p.DevToken
	}
	if p.SessionToken != "" {
		d.sessionToken = p.SessionToken
	}
	if p.BindUserID != "" {
		d.bindUserID = p.BindUserID
		d.bindUserPw = p.BindUserPassword
	}
	if p.BindToken != "" {
		d.bindToken = p.BindToken
	}
	d.mu.Unlock()

	if join {
		return d.Activate()
	}
	return nil
}

// Activate connects the device to the cloud: the reset notification (when
// pending and the design supports device-sent unbinds), the registration
// status message (pressed, when the design's setup sequence has the owner
// press the button before a device-sent bind), and the device-initiated
// or capability binding step if the design uses one.
func (d *Device) Activate() error {
	d.mu.Lock()
	if !d.provisioned {
		d.mu.Unlock()
		return ErrNotProvisioned
	}
	if d.cloud == nil {
		d.mu.Unlock()
		return errNoCloud
	}
	cloud := d.cloud
	sendReset := d.resetNotify && d.design.SupportsUnbind(core.UnbindDevIDAlone)
	d.resetNotify = false
	// When the device sends the bind and the setup sequence puts a
	// button press before it, the owner holds the button while the
	// device joins: the joining registration opens the window.
	setup := d.design.Setup()
	pressed := setup.Press && setup.Binder == core.SenderDevice
	d.mu.Unlock()

	if sendReset {
		err := cloud.HandleUnbind(protocol.UnbindRequest{
			DeviceID: d.id,
			Sender:   core.SenderDevice,
		})
		if err != nil && !errors.Is(err, protocol.ErrNotBound) {
			return fmt.Errorf("device %s: reset notify: %w", d.id, err)
		}
	}

	if err := d.register(pressed); err != nil {
		return err
	}

	return d.bindFromDevice()
}

// register sends the boot-time status message.
func (d *Device) register(buttonPressed bool) error {
	d.mu.Lock()
	req := protocol.StatusRequest{
		Kind:          protocol.StatusRegister,
		DeviceID:      d.id,
		DevToken:      d.devToken,
		SessionToken:  d.sessionToken,
		ButtonPressed: buttonPressed,
		Firmware:      firmwareVersion,
		Model:         d.model,
	}
	if d.design.EffectiveAuth() == core.AuthPublicKey {
		req.Signature = protocol.StatusSignature(d.factorySecret, d.id, protocol.StatusRegister)
	}
	cloud := d.cloud
	d.mu.Unlock()

	resp, err := cloud.HandleStatus(req)
	if err != nil {
		return fmt.Errorf("device %s: register: %w", d.id, err)
	}

	d.mu.Lock()
	d.active = true
	if resp.SessionNonce != "" && resp.SessionNonce != d.sessionNonce {
		d.sessionNonce, d.dataProof = resp.SessionNonce, ""
	}
	d.mu.Unlock()
	return nil
}

// bindFromDevice performs the design's device-side binding step, if any.
func (d *Device) bindFromDevice() error {
	d.mu.Lock()
	design := d.design
	cloud := d.cloud
	var req protocol.BindRequest
	send := false
	switch {
	case design.Binding == core.BindACLDevice && d.bindUserID != "":
		// Device-initiated ACL binding: the user's credential travels
		// through the device (Figure 4b).
		req = protocol.BindRequest{
			DeviceID:     d.id,
			UserID:       d.bindUserID,
			UserPassword: d.bindUserPw,
			Sender:       core.SenderDevice,
		}
		send = true
	case design.Binding == core.BindCapability && d.bindToken != "":
		// Capability binding: submit the locally delivered token with a
		// factory-secret proof (Figure 4c).
		req = protocol.BindRequest{
			DeviceID:  d.id,
			BindToken: d.bindToken,
			BindProof: protocol.BindProof(d.factorySecret, d.bindToken),
			Sender:    core.SenderDevice,
		}
		d.bindToken = "" // single use
		send = true
	}
	d.mu.Unlock()

	if !send {
		return nil
	}
	resp, err := cloud.HandleBind(req)
	if err != nil {
		return fmt.Errorf("device %s: bind: %w", d.id, err)
	}
	if resp.SessionToken != "" {
		d.mu.Lock()
		d.sessionToken = resp.SessionToken
		d.mu.Unlock()
	}
	return nil
}

// PressButton models the user pressing the physical button: the device
// sends a registration message with the button flag, opening the binding
// window on BindButtonWindow clouds (device #7).
func (d *Device) PressButton() error { return d.reregister(true) }

// Reregister models the device reconnecting to the cloud: it sends the
// registration status message and nothing else — unlike Activate, no
// reset notice and no device-sent bind.
func (d *Device) Reregister() error { return d.reregister(false) }

// reregister sends a registration from a provisioned device.
func (d *Device) reregister(buttonPressed bool) error {
	d.mu.Lock()
	provisioned := d.provisioned
	d.mu.Unlock()
	if !provisioned {
		return ErrNotProvisioned
	}
	return d.register(buttonPressed)
}

// QueueReading queues a sensor sample for the next heartbeat.
func (d *Device) QueueReading(name string, value float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pendingReadings = append(d.pendingReadings, protocol.Reading{
		Name:  name,
		Value: value,
		At:    d.now(),
	})
}

// Heartbeat sends the periodic status message with any queued readings and
// ingests delivered commands and user data. A rejected heartbeat (e.g. a
// stale session token after the binding was replaced) returns the cloud's
// error and requeues nothing — the samples are lost, as they would be on a
// real cut-off device.
func (d *Device) Heartbeat() error {
	d.mu.Lock()
	if !d.active {
		d.mu.Unlock()
		return ErrNotProvisioned
	}
	req := d.heartbeatRequestLocked()
	cloud := d.cloud
	d.mu.Unlock()

	resp, err := cloud.HandleStatus(req)
	if err != nil {
		return fmt.Errorf("device %s: heartbeat: %w", d.id, err)
	}

	d.mu.Lock()
	d.executed = append(d.executed, resp.Commands...)
	d.received = append(d.received, resp.UserData...)
	d.mu.Unlock()
	return nil
}

// heartbeatRequestLocked builds the periodic status message and claims the
// queued readings. The caller holds d.mu.
func (d *Device) heartbeatRequestLocked() protocol.StatusRequest {
	req := protocol.StatusRequest{
		Kind:         protocol.StatusHeartbeat,
		DeviceID:     d.id,
		DevToken:     d.devToken,
		SessionToken: d.sessionToken,
		Firmware:     firmwareVersion,
		Model:        d.model,
		Readings:     d.pendingReadings,
	}
	if d.design.DataRequiresSession && d.sessionNonce != "" {
		if d.dataProof == "" {
			d.dataProof = protocol.DataProof(d.factorySecret, d.sessionNonce)
		}
		req.DataProof = d.dataProof
	}
	if d.design.EffectiveAuth() == core.AuthPublicKey {
		if d.beatSignature == "" {
			d.beatSignature = protocol.StatusSignature(d.factorySecret, d.id, protocol.StatusHeartbeat)
		}
		req.Signature = d.beatSignature
	}
	d.pendingReadings = nil
	return req
}

// Reset performs a factory reset: local state is wiped, setup mode
// re-enters, and — on designs with device-sent unbinds — a reset
// notification is queued for the next activation.
func (d *Device) Reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.setupMode = true
	d.provisioned = false
	d.active = false
	d.resetNotify = true
	d.devToken = ""
	d.sessionToken = ""
	d.sessionNonce = ""
	d.dataProof = ""
	d.bindUserID = ""
	d.bindUserPw = ""
	d.bindToken = ""
	d.pendingReadings = nil
	// The logs are emptied keeping their arrays, as Init keeps them.
	clear(d.executed)
	clear(d.received)
	d.executed, d.received = d.executed[:0], d.received[:0]
}

// Executed returns the commands the device has executed.
func (d *Device) Executed() []protocol.Command {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]protocol.Command, len(d.executed))
	copy(out, d.executed)
	return out
}

// HasExecuted reports whether the device has executed the command with
// the given ID: a probe's question, answered without copying the log.
func (d *Device) HasExecuted(cmdID string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return slices.ContainsFunc(d.executed, func(c protocol.Command) bool { return c.ID == cmdID })
}

// ExecutedSince returns a copy of the commands executed at index n or
// later. Incremental consumers (the hub's command router) use it to read
// only the fresh tail instead of copying the whole history every cycle.
// An n at or past the end — including after a factory reset truncated
// the history — yields nil.
func (d *Device) ExecutedSince(n int) []protocol.Command {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n < 0 {
		n = 0
	}
	if n >= len(d.executed) {
		return nil
	}
	out := make([]protocol.Command, len(d.executed)-n)
	copy(out, d.executed[n:])
	return out
}

// ReceivedData returns the user data delivered to the device.
func (d *Device) ReceivedData() []protocol.UserData {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]protocol.UserData, len(d.received))
	copy(out, d.received)
	return out
}
