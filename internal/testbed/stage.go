package testbed

import (
	"errors"
	"fmt"

	"github.com/iotbind/iotbind/internal/attacker"
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/protocol"
)

// Step is one move of an attack procedure: a message the remote adversary
// forges from nothing but the leaked device ID and their own account, or
// the one victim move a procedure needs staged for it.
type Step int

// The steps. The first five are the single forged messages the discovery
// search composes; their values and names are part of discover's output.
const (
	// StepForgeRegister sends a forged registration status message.
	StepForgeRegister Step = iota + 1
	// StepForgeDataHeartbeat sends a forged heartbeat carrying a fake
	// sensor reading (and collects whatever the cloud returns).
	StepForgeDataHeartbeat
	// StepForgeBind sends a forged binding message pairing the victim's
	// device with the attacker's identity.
	StepForgeBind
	// StepForgeUnbindUserToken sends Unbind:(DevId, attacker's UserToken).
	StepForgeUnbindUserToken
	// StepForgeUnbindDevID sends Unbind:DevId.
	StepForgeUnbindDevID
	// StepForgeAnyUnbind is A4-3's "Unbind : DevId or (DevId, UserToken)":
	// it tries each unbind form the design supports until the victim is
	// unbound, and is unavailable (O) if the adversary could not even
	// craft one of them.
	StepForgeAnyUnbind
	// StepParkSecret is the victim's own move: the app parks a private
	// schedule for the device — the data-stealing target.
	StepParkSecret
)

var stepNames = [...]string{
	StepForgeRegister:        "forge-register",
	StepForgeDataHeartbeat:   "forge-data-heartbeat",
	StepForgeBind:            "forge-bind",
	StepForgeUnbindUserToken: "forge-unbind-usertoken",
	StepForgeUnbindDevID:     "forge-unbind-devid",
	StepForgeAnyUnbind:       "forge-any-unbind",
	StepParkSecret:           "park-secret",
}

// String implements fmt.Stringer.
func (s Step) String() string {
	if s < 1 || int(s) >= len(stepNames) {
		return fmt.Sprintf("Step(%d)", int(s))
	}
	return stepNames[s]
}

// Scenario is the victim situation an attack is launched into — where in
// the device's life cycle the steps run.
type Scenario int

// Victim scenarios.
const (
	// ScenarioSteadyControl: the victim has completed setup and controls
	// the device (the Table II control state).
	ScenarioSteadyControl Scenario = iota + 1
	// ScenarioPreSetup: the device is still in its box; the victim sets
	// it up only after the steps ran (the initial state).
	ScenarioPreSetup
	// ScenarioSetupWindow: the steps run inside the victim's setup, after
	// the device comes online but before the app binds (the online-state
	// window of A4-2).
	ScenarioSetupWindow
)

var scenarioNames = [...]string{
	ScenarioSteadyControl: "steady-control",
	ScenarioPreSetup:      "pre-setup",
	ScenarioSetupWindow:   "setup-window",
}

// String implements fmt.Stringer.
func (s Scenario) String() string {
	if s < 1 || int(s) >= len(scenarioNames) {
		return fmt.Sprintf("Scenario(%d)", int(s))
	}
	return scenarioNames[s]
}

// injectedReading is the sentinel value of the fake reading
// StepForgeDataHeartbeat reports and VictimSeesInjectedReading looks for.
const injectedReading = 9999

// Pre-built refusals of StepForgeAnyUnbind: a blocked cell of the attack
// matrix should cost no more allocations than a landed one.
var (
	errUnbindUnconfirmed = fmt.Errorf("testbed: the unbinding step could not be confirmed: %w", attacker.ErrForgeryUnavailable)
	errStillBound        = errors.New("testbed: no forged unbind disconnected the victim")
)

// rigError marks a failure of the rig's own machinery — the victim's
// move, a shadow probe — so it is never filed as a rejected forgery.
type rigError struct{ error }

// Forge performs one step against the victim's device. A nil error means
// the step went through; otherwise it is the cloud's rejection, or wraps
// attacker.ErrForgeryUnavailable when the adversary lacks the
// device-protocol knowledge to craft the message.
func (tb *Testbed) Forge(s Step) error {
	switch s {
	case StepForgeRegister:
		_, err := tb.atk.ForgeStatus(tb.deviceID, protocol.StatusRegister, nil)
		return err
	case StepForgeDataHeartbeat:
		_, err := tb.atk.ForgeStatus(tb.deviceID, protocol.StatusHeartbeat, []protocol.Reading{
			{Name: "power_w", Value: injectedReading},
		})
		return err
	case StepForgeBind:
		_, err := tb.atk.ForgeBind(tb.deviceID)
		return err
	case StepForgeUnbindUserToken:
		return tb.atk.ForgeUnbind(tb.deviceID, core.UnbindDevIDUserToken)
	case StepForgeUnbindDevID:
		return tb.atk.ForgeUnbind(tb.deviceID, core.UnbindDevIDAlone)
	case StepForgeAnyUnbind:
		return tb.forgeAnyUnbind()
	case StepParkSecret:
		if err := tb.victim.PushSchedule(tb.deviceID, protocol.UserData{
			Kind: "schedule", Body: "unlock 08:00, lock 22:00",
		}); err != nil {
			return rigError{err}
		}
		return nil
	default:
		return rigError{fmt.Errorf("testbed: unknown step %v", s)}
	}
}

// forgeAnyUnbind is StepForgeAnyUnbind. The probe after each accepted
// unbind is read-only.
func (tb *Testbed) forgeAnyUnbind() error {
	var (
		lastErr     error
		unavailable bool
	)
	for _, form := range [...]core.UnbindForm{core.UnbindDevIDAlone, core.UnbindDevIDUserToken} {
		if !tb.design.SupportsUnbind(form) {
			continue
		}
		if err := tb.atk.ForgeUnbind(tb.deviceID, form); err != nil {
			if errors.Is(err, attacker.ErrForgeryUnavailable) {
				unavailable = true
			}
			lastErr = err
			continue
		}
		bound, err := tb.VictimBound()
		if err != nil {
			return rigError{err}
		}
		if !bound {
			return nil
		}
	}
	switch {
	case unavailable:
		return errUnbindUnconfirmed
	case lastErr != nil:
		return lastErr
	default:
		return errStillBound
	}
}

// launch performs the steps in order. Strict (the harness) it stops at the
// first rejected step; otherwise (the searcher) the adversary simply tries
// them all and rejected is the first refusal. A rig failure ends the
// launch either way and is returned as err.
func (tb *Testbed) launch(steps []Step, strict bool) (rejected, err error) {
	for _, s := range steps {
		ferr := tb.Forge(s)
		if ferr == nil {
			continue
		}
		if rig, ok := ferr.(rigError); ok {
			return rejected, rig.error
		}
		if strict {
			return ferr, nil
		}
		if rejected == nil {
			rejected = ferr
		}
	}
	return rejected, nil
}

// Stage is the one live attack executor: it puts the victim into the
// scenario, launches the steps at the scenario's injection point, and
// finishes the victim's side.
//
//   - steady-control: the victim's complete setup, then the steps.
//   - pre-setup: the steps, then the victim's setup.
//   - setup-window: the victim's raw device setup, the steps running from
//     its pre-bind hook; launched is false when the design's setup never
//     opens that window.
//
// rejected is a step the cloud refused or the adversary could not craft.
// setupErr is the outcome of a victim setup that ran after or around the
// steps, where failing can be the attack's doing. err is a failure of the
// rig itself — the victim's own move, or a setup the attack cannot have
// touched — and never an attack outcome.
func (tb *Testbed) Stage(sc Scenario, steps []Step, strict bool) (launched bool, rejected, setupErr, err error) {
	switch sc {
	case ScenarioSteadyControl:
		if err := tb.SetupVictim(); err != nil {
			return false, nil, nil, err
		}
		rejected, err = tb.launch(steps, strict)
		return true, rejected, nil, err

	case ScenarioPreSetup:
		rejected, err = tb.launch(steps, strict)
		if err != nil {
			return true, rejected, nil, err
		}
		if !strict || rejected == nil {
			return true, rejected, tb.SetupVictim(), nil
		}
		// Blocked. A forgery the adversary could not craft sent nothing;
		// after a refusal by the cloud the legitimate setup must still
		// work, or the ✗ is an artefact of a broken rig.
		if !errors.Is(rejected, attacker.ErrForgeryUnavailable) {
			if serr := tb.SetupVictim(); serr != nil {
				err = fmt.Errorf("testbed: setup broken even without occupation: %w", serr)
			}
		}
		return true, rejected, nil, err

	case ScenarioSetupWindow:
		// The window's results live in one local the hook captures, so
		// only this scenario pays for a closure: the attack matrix's
		// allocation budget is ~2 per cell (DESIGN.md §3).
		var w struct {
			ran           bool
			rejected, err error
		}
		tb.hook = func() {
			w.ran = true
			w.rejected, w.err = tb.launch(steps, strict)
		}
		setupErr = tb.victim.SetupDevice(tb.dev.LocalName(), tb.actions)
		tb.hook = nil
		return w.ran, w.rejected, setupErr, w.err

	default:
		return false, nil, nil, fmt.Errorf("testbed: unknown scenario %v", sc)
	}
}
