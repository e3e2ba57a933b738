// Package testbed wires the full three-party emulation — vendor cloud,
// victim home network with device and app, and a remote attacker — and
// runs the paper's attack procedures end to end, classifying each outcome
// in Table III vocabulary (✓ / ✗ / O). The attacker has an address, not a
// network: nothing in the paper's adversary model sits on a LAN beside
// them, so their transport stamps DefaultAttackerIP and nothing more.
//
// Experiments are deterministic: a manual clock drives heartbeat expiry
// and every agent is stepped explicitly.
package testbed

import (
	"errors"
	"fmt"
	"slices"
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
	// defaultSecret is the default device's factory secret, spelled once.
	defaultSecret = "factory-secret-" + DefaultDeviceID
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

	svc  *cloud.Service
	home *localnet.Network
	// homeLink and atkLink stamp the home's and the attacker's address.
	homeLink, atkLink transport.Stamped

	victim  *app.App
	dev     *device.Device
	atk     *attacker.Attacker
	actions userActions

	deviceID string
	seq      int
	hook     func()
	// now (the clock's Now) and preBind (the app's pre-bind hook, which
	// runs hook) are made by the first Reset and handed out by every one.
	now     func() time.Time
	preBind func()
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
	deviceID, secret string
}

type deviceIDOption string

func (id deviceIDOption) apply(c config) config {
	c.deviceID, c.secret = string(id), "factory-secret-"+string(id)
	return c
}

// WithDeviceID overrides the victim's device ID (e.g. one generated from a
// vendor's ID scheme).
func WithDeviceID(id string) Option { return deviceIDOption(id) }

// New builds a testbed for one design: the vendor cloud with the victim's
// device registered, the victim's app logged in on the home network, and a
// prepared remote attacker who knows the victim's device ID.
func New(design core.DesignSpec, opts ...Option) (*Testbed, error) {
	tb := new(Testbed)
	if err := tb.Reset(design, opts...); err != nil {
		return nil, err
	}
	return tb, nil
}

// Reset readies the testbed for a new experiment on design, as New builds
// one, but in place: the cloud, the home network and the three agents are
// emptied keeping their maps and arrays, the clock returns to the lab
// epoch, the pre-bind hook goes, and the one setup path runs again. After
// a failed Reset the testbed is unusable until one succeeds.
func (tb *Testbed) Reset(design core.DesignSpec, opts ...Option) error {
	cfg := config{deviceID: DefaultDeviceID, secret: defaultSecret}
	for _, o := range opts {
		cfg = o.apply(cfg)
	}
	tb.design, tb.clock, tb.deviceID, tb.seq, tb.hook = design, Clock{t: labEpoch}, cfg.deviceID, 0, nil
	if tb.svc == nil { // a zero Testbed: make the world
		tb.now = tb.clock.Now
		tb.preBind = func() {
			if tb.hook != nil {
				tb.hook()
			}
		}
		svc, err := cloud.NewService(design, cloud.NewRegistry(), cloud.WithClock(tb.now))
		if err != nil {
			return fmt.Errorf("testbed: %w", err)
		}
		tb.svc, tb.home = svc, localnet.NewNetwork("victim-home", DefaultHomeIP)
		tb.homeLink = transport.Stamped{Cloud: svc, IP: tb.home.PublicIP()}
		tb.atkLink = transport.Stamped{Cloud: svc, IP: DefaultAttackerIP}
		tb.dev, tb.victim, tb.atk = new(device.Device), new(app.App), new(attacker.Attacker)
		tb.actions = userActions{dev: tb.dev}
	} else if err := tb.svc.Reset(design); err != nil {
		return fmt.Errorf("testbed: %w", err)
	}
	tb.home.Reset()

	if err := tb.svc.Registry().Add(cloud.DeviceRecord{
		ID:            cfg.deviceID,
		FactorySecret: cfg.secret,
		Model:         design.Name,
	}); err != nil {
		return fmt.Errorf("testbed: %w", err)
	}
	if err := tb.dev.Init(device.Config{
		ID:            cfg.deviceID,
		FactorySecret: cfg.secret,
		LocalName:     "victim-device",
		Model:         design.Name,
	}, design, &tb.homeLink, device.WithClock(tb.now)); err != nil {
		return fmt.Errorf("testbed: %w", err)
	}
	if err := tb.home.Join(tb.dev); err != nil {
		return fmt.Errorf("testbed: %w", err)
	}
	if err := tb.victim.Init(DefaultVictimUser, "pw-victim", design, &tb.homeLink, tb.home,
		app.WithPreBindHook(tb.preBind)); err != nil {
		return fmt.Errorf("testbed: %w", err)
	}
	if err := tb.victim.RegisterAccount(); err != nil {
		return fmt.Errorf("testbed: %w", err)
	}
	if err := tb.victim.Login(); err != nil {
		return fmt.Errorf("testbed: %w", err)
	}
	if err := tb.atk.Init(DefaultAttackerUser, "pw-attacker", design, &tb.atkLink); err != nil {
		return fmt.Errorf("testbed: %w", err)
	}
	if err := tb.atk.Prepare(); err != nil {
		return fmt.Errorf("testbed: %w", err)
	}
	return nil
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
	return tb.victimInControl()
}

// victimInControl checks that the victim's setup left the shadow in the
// control state, bound to the victim.
func (tb *Testbed) victimInControl() error {
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

// Reached is the live probe for goal: whether the adversary reached it on
// this rig. setupErr is the outcome of a victim setup that ran after or
// around the moves (Stage); only occupation reads it. The steal,
// disconnect and inject probes only read — injection is the fake reading
// of MoveForgeDataHeartbeat among those the still-bound victim's app
// fetches, and a fetch the cloud refuses is no injection they could see;
// the hijack and occupy probes pump a device heartbeat. err is a failed
// shadow read.
func (tb *Testbed) Reached(goal core.Goal, setupErr error) (bool, error) {
	switch goal {
	case core.GoalStealData:
		return len(tb.atk.StolenData()) > 0, nil
	case core.GoalDisconnect:
		bound, err := tb.VictimBound()
		return !bound, err
	case core.GoalInjectData:
		bound, err := tb.VictimBound()
		if err != nil || !bound {
			return false, err
		}
		readings, err := tb.victim.Readings(tb.deviceID)
		return err == nil && slices.ContainsFunc(readings, func(r protocol.Reading) bool {
			return r.Value == injectedReading
		}), nil
	case core.GoalHijack:
		return tb.AttackerHasControl(), nil
	case core.GoalOccupy:
		return setupErr != nil || !tb.VictimHasControl(), nil
	default:
		return false, fmt.Errorf("testbed: no live probe for %v", goal)
	}
}

// classifyForgeErr maps a rejected move to its Table III outcome.
func classifyForgeErr(err error) core.Outcome {
	if errors.Is(err, attacker.ErrForgeryUnavailable) {
		return core.OutcomeUnconfirmed
	}
	return core.OutcomeFailed
}
