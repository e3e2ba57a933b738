// Package testbed wires the full three-party emulation — vendor cloud,
// victim home network with device and app, and a remote attacker on a
// different network — and runs the paper's attack procedures end to end,
// classifying each outcome in Table III vocabulary (✓ / ✗ / O).
//
// Experiments are deterministic: a manual clock drives heartbeat expiry
// and every agent is stepped explicitly.
package testbed

import (
	"errors"
	"fmt"
	"time"

	"github.com/iotbind/iotbind/internal/app"
	"github.com/iotbind/iotbind/internal/attacker"
	"github.com/iotbind/iotbind/internal/cloud"
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/device"
	"github.com/iotbind/iotbind/internal/localnet"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/transport"
)

// Default experiment identities.
const (
	DefaultVictimUser   = "victim@example.com"
	DefaultAttackerUser = "attacker@example.com"
	DefaultDeviceID     = "AA:BB:CC:00:10:01"
	DefaultHomeIP       = "203.0.113.7"
	DefaultAttackerIP   = "198.51.100.66"
)

// Clock is the testbed's manual clock.
type Clock struct{ t time.Time }

// Now returns the current simulated time.
func (c *Clock) Now() time.Time { return c.t }

// Advance moves the simulated time forward.
func (c *Clock) Advance(d time.Duration) { c.t = c.t.Add(d) }

// Testbed is one experiment rig: a vendor cloud, the victim triple, and a
// remote attacker.
type Testbed struct {
	design core.DesignSpec
	clock  Clock

	svc     *cloud.Service
	home    *localnet.Network
	remote  *localnet.Network
	victim  *app.App
	dev     *device.Device
	atk     *attacker.Attacker
	actions userActions

	deviceID string
	seq      int
	hook     func()
}

// userActions gives the victim's app "hands" on the home devices.
type userActions struct{ dev *device.Device }

func (u userActions) PressButton(localName string) error {
	if localName != u.dev.LocalName() {
		return fmt.Errorf("testbed: no device named %q", localName)
	}
	return u.dev.PressButton()
}

func (u userActions) ResetDevice(localName string) error {
	if localName != u.dev.LocalName() {
		return fmt.Errorf("testbed: no device named %q", localName)
	}
	u.dev.Reset()
	return nil
}

// Option configures a Testbed.
type Option interface {
	// apply takes and returns the config by value, so New's stays on
	// its stack.
	apply(config) config
}

type config struct {
	deviceID string
}

type deviceIDOption string

func (id deviceIDOption) apply(c config) config {
	c.deviceID = string(id)
	return c
}

// WithDeviceID overrides the victim's device ID (e.g. one generated from a
// vendor's ID scheme).
func WithDeviceID(id string) Option { return deviceIDOption(id) }

// New builds a testbed for one design: the vendor cloud with the victim's
// device registered, the victim's app logged in on the home network, and a
// prepared attacker on a remote network who knows the victim's device ID.
func New(design core.DesignSpec, opts ...Option) (*Testbed, error) {
	cfg := config{deviceID: DefaultDeviceID}
	for _, o := range opts {
		cfg = o.apply(cfg)
	}

	tb := &Testbed{design: design, clock: Clock{t: labEpoch}, deviceID: cfg.deviceID}
	now := tb.clock.Now
	secret := "factory-secret-" + cfg.deviceID
	registry := cloud.NewRegistry()
	if err := registry.Add(cloud.DeviceRecord{
		ID:            cfg.deviceID,
		FactorySecret: secret,
		Model:         design.Name,
	}); err != nil {
		return nil, fmt.Errorf("testbed: %w", err)
	}
	svc, err := cloud.NewService(design, registry, cloud.WithClock(now))
	if err != nil {
		return nil, fmt.Errorf("testbed: %w", err)
	}

	home := localnet.NewNetwork("victim-home", DefaultHomeIP)
	remote := localnet.NewNetwork("attacker-lair", DefaultAttackerIP)
	homeTransport := transport.StampSource(svc, home.PublicIP())
	remoteTransport := transport.StampSource(svc, remote.PublicIP())

	dev, err := device.New(device.Config{
		ID:            cfg.deviceID,
		FactorySecret: secret,
		LocalName:     "victim-device",
		Model:         design.Name,
	}, design, homeTransport, device.WithClock(now))
	if err != nil {
		return nil, fmt.Errorf("testbed: %w", err)
	}
	if err := home.Join(dev); err != nil {
		return nil, fmt.Errorf("testbed: %w", err)
	}

	tb.svc, tb.home, tb.remote = svc, home, remote
	tb.dev, tb.actions = dev, userActions{dev: dev}

	victim, err := app.New(DefaultVictimUser, "pw-victim", design, homeTransport, home,
		app.WithPreBindHook(func() {
			if tb.hook != nil {
				tb.hook()
			}
		}))
	if err != nil {
		return nil, fmt.Errorf("testbed: %w", err)
	}
	if err := victim.RegisterAccount(); err != nil {
		return nil, fmt.Errorf("testbed: %w", err)
	}
	if err := victim.Login(); err != nil {
		return nil, fmt.Errorf("testbed: %w", err)
	}
	tb.victim = victim

	atk, err := attacker.New(DefaultAttackerUser, "pw-attacker", design, remoteTransport)
	if err != nil {
		return nil, fmt.Errorf("testbed: %w", err)
	}
	if err := atk.Prepare(); err != nil {
		return nil, fmt.Errorf("testbed: %w", err)
	}
	tb.atk = atk
	return tb, nil
}

// Design returns the design under test.
func (tb *Testbed) Design() core.DesignSpec { return tb.design }

// Clock returns the manual clock.
func (tb *Testbed) Clock() *Clock { return &tb.clock }

// Cloud returns the emulated vendor cloud.
func (tb *Testbed) Cloud() *cloud.Service { return tb.svc }

// VictimApp returns the victim's app agent.
func (tb *Testbed) VictimApp() *app.App { return tb.victim }

// VictimDevice returns the victim's device agent.
func (tb *Testbed) VictimDevice() *device.Device { return tb.dev }

// Attacker returns the remote attacker.
func (tb *Testbed) Attacker() *attacker.Attacker { return tb.atk }

// DeviceID returns the victim's device ID (the attacker's known input).
func (tb *Testbed) DeviceID() string { return tb.deviceID }

// SetPreBindHook installs a callback that runs inside the victim's setup
// window (after the device comes online, before the app binds) — the A4-2
// injection point.
func (tb *Testbed) SetPreBindHook(hook func()) { tb.hook = hook }

// SetupVictim runs the victim's complete device setup, lets the physical
// button window (if any) lapse, and settles one heartbeat, leaving the
// shadow in the steady control state attacks launch against.
func (tb *Testbed) SetupVictim() error {
	if err := tb.victim.SetupDevice(tb.dev.LocalName(), tb.actions); err != nil {
		return fmt.Errorf("testbed: victim setup: %w", err)
	}
	// Attacks run at an arbitrary later time: any setup-time binding
	// window has long closed.
	tb.clock.Advance(cloud.DefaultButtonWindow + time.Second)
	if err := tb.dev.Heartbeat(); err != nil {
		return fmt.Errorf("testbed: settle heartbeat: %w", err)
	}
	st, err := tb.Shadow()
	if err != nil {
		return err
	}
	if st.State != core.StateControl || st.BoundUser != DefaultVictimUser {
		return fmt.Errorf("testbed: setup ended in %v bound to %q, want control/victim", st.State, st.BoundUser)
	}
	return nil
}

// Shadow returns the victim device's shadow state.
func (tb *Testbed) Shadow() (protocol.ShadowStateResponse, error) {
	st, err := tb.svc.ShadowState(protocol.ShadowStateRequest{DeviceID: tb.deviceID})
	if err != nil {
		return protocol.ShadowStateResponse{}, fmt.Errorf("testbed: shadow: %w", err)
	}
	return st, nil
}

// VictimHasControl probes whether the victim can actually command the real
// device: a uniquely identified command must round-trip to the device's
// executed log.
func (tb *Testbed) VictimHasControl() bool {
	tb.seq++
	id := fmt.Sprintf("victim-probe-%d", tb.seq)
	if err := tb.victim.Control(tb.deviceID, protocol.Command{ID: id, Name: "probe"}); err != nil {
		return false
	}
	return tb.deviceExecuted(id)
}

// AttackerHasControl probes whether the attacker can command the real
// device.
func (tb *Testbed) AttackerHasControl() bool {
	tb.seq++
	id := fmt.Sprintf("attacker-probe-%d", tb.seq)
	if err := tb.atk.Control(tb.deviceID, protocol.Command{ID: id, Name: "probe"}); err != nil {
		return false
	}
	return tb.deviceExecuted(id)
}

// deviceExecuted pumps one device heartbeat (tolerating rejection — a
// cut-off device simply fetches nothing) and checks the executed log.
func (tb *Testbed) deviceExecuted(cmdID string) bool {
	_ = tb.dev.Heartbeat()
	for _, c := range tb.dev.Executed() {
		if c.ID == cmdID {
			return true
		}
	}
	return false
}

// VictimBound reports whether the victim still owns the binding — a
// read-only probe, unlike the heartbeat-pumping control probes above.
func (tb *Testbed) VictimBound() (bool, error) {
	st, err := tb.Shadow()
	if err != nil {
		return false, err
	}
	return st.BoundUser == DefaultVictimUser, nil
}

// VictimSeesInjectedReading reports whether the fake reading of
// StepForgeDataHeartbeat shows up among the readings the victim's app
// fetches — the data-injection evidence, read-only.
func (tb *Testbed) VictimSeesInjectedReading() (bool, error) {
	readings, err := tb.victim.Readings(tb.deviceID)
	if err != nil {
		return false, err
	}
	for _, r := range readings {
		if r.Value == injectedReading {
			return true, nil
		}
	}
	return false, nil
}

// classifyForgeErr maps an attack-step error to its Table III outcome.
func classifyForgeErr(err error) core.Outcome {
	if errors.Is(err, attacker.ErrForgeryUnavailable) {
		return core.OutcomeUnconfirmed
	}
	return core.OutcomeFailed
}
