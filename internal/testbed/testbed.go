// Package testbed wires the full three-party emulation — vendor cloud,
// victim home network with device and app, and a remote attacker — and
// runs the paper's attack procedures end to end, classifying each outcome
// in Table III vocabulary (✓ / ✗ / O). The attacker has an address, not a
// network: nothing in the paper's adversary model sits on a LAN beside
// them, so their transport stamps defaultAttackerIP and nothing more.
//
// Experiments are deterministic: a manual clock drives heartbeat expiry
// and every agent is stepped explicitly.
package testbed

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strconv"
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
	defaultVictimUser   = "victim@example.com"
	defaultAttackerUser = "attacker@example.com"
	defaultDeviceID     = "AA:BB:CC:00:10:01"
	defaultHomeIP       = "203.0.113.7"
	defaultAttackerIP   = "198.51.100.66"
	// defaultSecret is the default device's factory secret, spelled once.
	defaultSecret = "factory-secret-" + defaultDeviceID
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
	// runs the armed window's moves, or else hook) are made by the first
	// Reset and handed out by every one.
	now     func() time.Time
	preBind func()
	// window is the setup-window scenario's launch (Stage), which preBind
	// runs while armed.
	window window

	// Memory a cell reuses rather than allocates: the injected reading,
	// the probes' command IDs (probeID), and the buffer a Detail is
	// formatted into with the Details made so far (text).
	injected [1]protocol.Reading
	probeIDs [][2]string
	buf      []byte
	texts    map[string]string
	// setupErrs are the setup failures built so far (setupFailed): a
	// cache, not state, so no checkpoint holds it.
	setupErrs map[setupError]*setupError

	// afterReset and afterSetup are Stage's checkpoints: the world right
	// after a reset and right after the victim's setup that follows one.
	afterReset, afterSetup checkpoint
}

// checkpoint is the whole rig as it stood at one point of one design's
// experiment — the cloud, the device, the victim's app, the attacker, the
// home network, the clock and the probe sequence — in memory of its own,
// which a later capture reuses. It is rewound only for the design (by
// every field) and the device ID it was captured for. The home network
// is copied back only when its membership moved since the checkpoint
// last matched it (homeWrites, at the rig's network's write count); the
// cloud skips its unchanged stores the same way (cloud.Checkpoint).
type checkpoint struct {
	valid      bool
	design     core.DesignSpec
	deviceID   string
	clock      Clock
	seq        int
	cloud      cloud.Checkpoint
	dev        device.Device
	victim     app.App
	atk        attacker.Attacker
	home       localnet.Network
	homeWrites uint64
}

// holds reports whether c was captured for design and cfg's device.
func (c *checkpoint) holds(design core.DesignSpec, cfg config) bool {
	return c.valid && cfg.deviceID == c.deviceID && design.Equal(c.design)
}

// capture copies the rig into c.
func (tb *Testbed) capture(c *checkpoint) {
	c.design, c.deviceID, c.clock, c.seq = tb.design, tb.deviceID, tb.clock, tb.seq
	tb.svc.Capture(&c.cloud)
	c.dev.CopyFrom(tb.dev)
	c.victim.CopyFrom(tb.victim)
	c.atk.CopyFrom(tb.atk)
	c.home.CopyFrom(tb.home)
	c.homeWrites = tb.home.Writes()
	c.valid = true
}

// rewind puts the rig back to c, which holds design, copying into the
// rig's own memory; the pre-bind hook goes, as Reset drops it.
func (tb *Testbed) rewind(c *checkpoint, design core.DesignSpec) {
	tb.design, tb.deviceID, tb.clock, tb.seq, tb.hook = design, c.deviceID, c.clock, c.seq, nil
	tb.svc.Rewind(&c.cloud)
	tb.dev.CopyFrom(&c.dev)
	tb.victim.CopyFrom(&c.victim)
	tb.atk.CopyFrom(&c.atk)
	if tb.home.Writes() != c.homeWrites {
		tb.home.CopyFrom(&c.home)
		c.homeWrites = tb.home.Writes()
	}
}

// enter readies the rig for an experiment on design: reset, and set up
// by the victim when setUp is true. Each step is rewound from its
// checkpoint when that holds design and the device ID, and run and
// captured when it does not.
func (tb *Testbed) enter(design core.DesignSpec, cfg config, setUp bool) error {
	if setUp && tb.afterSetup.holds(design, cfg) {
		tb.rewind(&tb.afterSetup, design)
		return nil
	}
	if tb.afterReset.holds(design, cfg) {
		tb.rewind(&tb.afterReset, design)
	} else {
		if err := tb.resetTo(design, cfg); err != nil {
			return err
		}
		tb.capture(&tb.afterReset)
	}
	if !setUp {
		return nil
	}
	if err := tb.SetupVictim(); err != nil {
		return err
	}
	tb.capture(&tb.afterSetup)
	return nil
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

// secret is the factory secret of the config's device, derived from its
// ID; the default device's is a constant.
func (c config) secret() string {
	if c.deviceID == defaultDeviceID {
		return defaultSecret
	}
	return "factory-secret-" + c.deviceID
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
	return tb.resetTo(design, configure(opts))
}

// configure applies opts to the default config.
func configure(opts []Option) config {
	cfg := config{deviceID: defaultDeviceID}
	for _, o := range opts {
		cfg = o.apply(cfg)
	}
	return cfg
}

// resetTo is Reset with its options applied.
func (tb *Testbed) resetTo(design core.DesignSpec, cfg config) error {
	tb.design, tb.clock, tb.deviceID, tb.seq, tb.hook = design, Clock{t: labEpoch}, cfg.deviceID, 0, nil
	if tb.svc == nil { // a zero Testbed: make the world
		tb.now = tb.clock.Now
		tb.preBind = func() {
			switch w := &tb.window; {
			case w.armed:
				w.ran = true
				w.rejected, w.err = tb.launch(w.moves, w.strict)
			case tb.hook != nil:
				tb.hook()
			}
		}
		svc, err := cloud.NewService(design, cloud.NewRegistry(), cloud.WithClock(tb.now))
		if err != nil {
			return fmt.Errorf("testbed: %w", err)
		}
		tb.svc, tb.home = svc, localnet.NewNetwork("victim-home", defaultHomeIP)
		tb.homeLink = transport.Stamped{Cloud: svc, IP: tb.home.PublicIP()}
		tb.atkLink = transport.Stamped{Cloud: svc, IP: defaultAttackerIP}
		tb.dev, tb.victim, tb.atk = new(device.Device), new(app.App), new(attacker.Attacker)
		tb.actions = userActions{dev: tb.dev}
	} else if err := tb.svc.Reset(design); err != nil {
		return fmt.Errorf("testbed: %w", err)
	}
	tb.home.Reset()

	secret := cfg.secret()
	if err := tb.svc.Registry().Add(cloud.DeviceRecord{
		ID:            cfg.deviceID,
		FactorySecret: secret,
		Model:         design.Name,
	}); err != nil {
		return fmt.Errorf("testbed: %w", err)
	}
	if err := tb.dev.Init(device.Config{
		ID:            cfg.deviceID,
		FactorySecret: secret,
		LocalName:     "victim-device",
		Model:         design.Name,
	}, design, &tb.homeLink, device.WithClock(tb.now)); err != nil {
		return fmt.Errorf("testbed: %w", err)
	}
	if err := tb.home.Join(tb.dev); err != nil {
		return fmt.Errorf("testbed: %w", err)
	}
	if err := tb.victim.Init(defaultVictimUser, "pw-victim", design, &tb.homeLink, tb.home,
		app.WithPreBindHook(tb.preBind)); err != nil {
		return fmt.Errorf("testbed: %w", err)
	}
	if err := tb.victim.RegisterAccount(); err != nil {
		return fmt.Errorf("testbed: %w", err)
	}
	if err := tb.victim.Login(); err != nil {
		return fmt.Errorf("testbed: %w", err)
	}
	if err := tb.atk.Init(defaultAttackerUser, "pw-attacker", design, &tb.atkLink); err != nil {
		return fmt.Errorf("testbed: %w", err)
	}
	if err := tb.atk.Prepare(); err != nil {
		return fmt.Errorf("testbed: %w", err)
	}
	return nil
}

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
		return tb.setupFailed(err)
	}
	// Attacks run at an arbitrary later time: any setup-time binding
	// window has long closed.
	tb.clock.Advance(cloud.DefaultButtonWindow + time.Second)
	if err := tb.dev.Heartbeat(); err != nil {
		return fmt.Errorf("testbed: settle heartbeat: %w", err)
	}
	return tb.victimInControl()
}

// setupError is the failure of SetupVictim's device setup. It reads
// "testbed: victim setup: <err>" and wraps err; formatting one with %v or
// %s writes into the formatter, as attacker.Refusal does, so quoting it in
// a Detail builds no string of its own.
type setupError struct{ err error }

func (e *setupError) Error() string { return "testbed: victim setup: " + e.err.Error() }

// Unwrap returns the setup's error.
func (e *setupError) Unwrap() error { return e.err }

// Format implements fmt.Formatter.
func (e *setupError) Format(f fmt.State, verb rune) {
	if _, width := f.Width(); width || (verb != 'v' && verb != 's') {
		fmt.Fprintf(f, fmt.FormatString(f, verb), e.Error())
		return
	}
	_, _ = io.WriteString(f, "testbed: victim setup: ")
	fmt.Fprint(f, e.err)
}

// setupFailed returns the setupError wrapping err: the one this rig built
// before for the same error, or a new one, kept for the next (bounded by
// maxTexts, as the Details are). Only a pointer error is kept, as
// attacker.Refusal's cache keeps them.
func (tb *Testbed) setupFailed(err error) error {
	if reflect.TypeOf(err).Kind() != reflect.Pointer {
		return &setupError{err}
	}
	if kept, ok := tb.setupErrs[setupError{err}]; ok {
		return kept
	}
	if tb.setupErrs == nil || len(tb.setupErrs) == maxTexts {
		tb.setupErrs = make(map[setupError]*setupError)
	}
	kept := &setupError{err}
	tb.setupErrs[setupError{err}] = kept
	return kept
}

// victimInControl checks that the victim's setup left the shadow in the
// control state, bound to the victim.
func (tb *Testbed) victimInControl() error {
	st, err := tb.Shadow()
	if err != nil {
		return err
	}
	if st.State != core.StateControl || st.BoundUser != defaultVictimUser {
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
	id := tb.probeID(victimProbe)
	if err := tb.victim.Control(tb.deviceID, protocol.Command{ID: id, Name: "probe"}); err != nil {
		return false
	}
	return tb.deviceExecuted(id)
}

// AttackerHasControl probes whether the attacker can command the real
// device.
func (tb *Testbed) AttackerHasControl() bool {
	id := tb.probeID(attackerProbe)
	if err := tb.atk.Control(tb.deviceID, protocol.Command{ID: id, Name: "probe"}); err != nil {
		return false
	}
	return tb.deviceExecuted(id)
}

// The two control probes, in probeIDs' columns.
const (
	victimProbe = iota
	attackerProbe
)

// probeID advances the probe sequence and returns the command ID of the
// who probe ("victim-probe-7", "attacker-probe-7") at it. Each ID is made
// once, into the rig's table indexed by the sequence, which every rewind
// of a cell puts back to the same few values.
func (tb *Testbed) probeID(who int) string {
	tb.seq++
	for len(tb.probeIDs) <= tb.seq {
		n := strconv.Itoa(len(tb.probeIDs))
		tb.probeIDs = append(tb.probeIDs, [2]string{"victim-probe-" + n, "attacker-probe-" + n})
	}
	return tb.probeIDs[tb.seq][who]
}

// deviceExecuted pumps one device heartbeat (tolerating rejection — a
// cut-off device simply fetches nothing) and checks the executed log.
func (tb *Testbed) deviceExecuted(cmdID string) bool {
	_ = tb.dev.Heartbeat()
	return tb.dev.HasExecuted(cmdID)
}

// VictimBound reports whether the victim still owns the binding — a
// read-only probe, unlike the heartbeat-pumping control probes above.
func (tb *Testbed) VictimBound() (bool, error) {
	st, err := tb.Shadow()
	if err != nil {
		return false, err
	}
	return st.BoundUser == defaultVictimUser, nil
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
		return tb.atk.HasStolen(), nil
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
