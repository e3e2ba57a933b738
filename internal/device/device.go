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
	// ErrNoCloud is returned when the device has no transport attached.
	ErrNoCloud = errors.New("device: no cloud transport attached")
)

// Device is one emulated IoT device.
type Device struct {
	id            string
	factorySecret string
	localName     string
	model         string
	firmware      string
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

	pendingReadings []protocol.Reading
	executed        []protocol.Command
	received        []protocol.UserData

	batchSize     int
	flushInterval time.Duration
	batchQueue    []protocol.StatusRequest
	batchStart    time.Time

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

// WithFirmware sets the reported firmware version.
func WithFirmware(v string) Option {
	return optionFunc(func(d *Device) { d.firmware = v })
}

// WithBatching makes the device coalesce heartbeats instead of sending
// each one immediately: Heartbeat queues the status message and the queue
// is delivered as one StatusBatch once it holds n messages or the oldest
// queued message is flushInterval old (per the injected clock; zero
// disables the age trigger). The device stays passive — with no goroutines
// the flush happens inside the Heartbeat call that trips either condition,
// or on an explicit Flush. n <= 1 leaves batching off.
//
// Keep flushInterval comfortably under the cloud's heartbeat TTL:
// coalescing delays delivery, and a queue older than the TTL would let
// the shadow flap offline between flushes.
func WithBatching(n int, flushInterval time.Duration) Option {
	return optionFunc(func(d *Device) {
		d.batchSize = n
		d.flushInterval = flushInterval
	})
}

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
	*d = Device{
		id:            cfg.ID,
		factorySecret: cfg.FactorySecret,
		localName:     cfg.LocalName,
		model:         cfg.Model,
		firmware:      "1.0.0",
		design:        design,
		cloud:         cloud,
		setupMode:     true,
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
		ann.PairingProof = protocol.PairingProof(d.factorySecret, d.id)
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
		return ErrNoCloud
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
	// Queued heartbeats logically precede this registration: deliver them
	// first so the cloud observes messages in the order the device produced
	// them.
	if len(d.batchQueue) > 0 {
		if err := d.flushLocked(); err != nil {
			return err
		}
		d.mu.Lock()
	}
	req := protocol.StatusRequest{
		Kind:          protocol.StatusRegister,
		DeviceID:      d.id,
		DevToken:      d.devToken,
		SessionToken:  d.sessionToken,
		ButtonPressed: buttonPressed,
		Firmware:      d.firmware,
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
	if resp.SessionNonce != "" {
		d.sessionNonce = resp.SessionNonce
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
//
// Under WithBatching the message is queued instead; the call that fills
// the batch (or finds the queue flushInterval old) delivers the whole
// queue as one StatusBatch and returns its outcome.
func (d *Device) Heartbeat() error {
	d.mu.Lock()
	if !d.active {
		d.mu.Unlock()
		return ErrNotProvisioned
	}
	req := d.heartbeatRequestLocked()
	if d.batchSize <= 1 {
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

	if len(d.batchQueue) == 0 {
		d.batchStart = d.now()
	}
	d.batchQueue = append(d.batchQueue, req)
	due := len(d.batchQueue) >= d.batchSize ||
		(d.flushInterval > 0 && !d.now().Before(d.batchStart.Add(d.flushInterval)))
	if !due {
		d.mu.Unlock()
		return nil
	}
	return d.flushLocked()
}

// heartbeatRequestLocked builds the periodic status message and claims the
// queued readings. The caller holds d.mu.
func (d *Device) heartbeatRequestLocked() protocol.StatusRequest {
	req := protocol.StatusRequest{
		Kind:         protocol.StatusHeartbeat,
		DeviceID:     d.id,
		DevToken:     d.devToken,
		SessionToken: d.sessionToken,
		Firmware:     d.firmware,
		Model:        d.model,
		Readings:     d.pendingReadings,
	}
	if d.design.DataRequiresSession && d.sessionNonce != "" {
		req.DataProof = protocol.DataProof(d.factorySecret, d.sessionNonce)
	}
	if d.design.EffectiveAuth() == core.AuthPublicKey {
		req.Signature = protocol.StatusSignature(d.factorySecret, d.id, protocol.StatusHeartbeat)
	}
	d.pendingReadings = nil
	return req
}

// Flush delivers any queued heartbeats immediately. It is a no-op when
// nothing is queued or batching is off.
func (d *Device) Flush() error {
	d.mu.Lock()
	return d.flushLocked()
}

// PendingBatch reports how many heartbeats are queued awaiting a flush.
func (d *Device) PendingBatch() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.batchQueue)
}

// flushLocked takes the queued messages, delivers them as one StatusBatch,
// and merges the per-item results. The caller holds d.mu; it is released
// on return. A transport-level failure loses the whole queue — exactly the
// samples a real cut-off device would lose — while per-item rejections
// still ingest every accepted item's commands and data, returning the
// first rejection.
func (d *Device) flushLocked() error {
	items := d.batchQueue
	d.batchQueue = nil
	cloud := d.cloud
	d.mu.Unlock()
	if len(items) == 0 {
		return nil
	}

	resp, err := cloud.HandleStatusBatch(protocol.StatusBatchRequest{Items: items})
	if err != nil {
		return fmt.Errorf("device %s: heartbeat batch: %w", d.id, err)
	}
	if len(resp.Results) != len(items) {
		return fmt.Errorf("device %s: heartbeat batch: %w", d.id, protocol.ErrBatchMismatch)
	}

	var firstErr error
	d.mu.Lock()
	for i := range resp.Results {
		r := &resp.Results[i]
		if itemErr := r.Err(); itemErr != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("device %s: heartbeat batch item %d: %w", d.id, i, itemErr)
			}
			continue
		}
		d.executed = append(d.executed, r.Response.Commands...)
		d.received = append(d.received, r.Response.UserData...)
	}
	d.mu.Unlock()
	return firstErr
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
	d.bindUserID = ""
	d.bindUserPw = ""
	d.bindToken = ""
	d.pendingReadings = nil
	d.batchQueue = nil
	d.executed = nil
	d.received = nil
}

// Executed returns the commands the device has executed.
func (d *Device) Executed() []protocol.Command {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]protocol.Command, len(d.executed))
	copy(out, d.executed)
	return out
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
