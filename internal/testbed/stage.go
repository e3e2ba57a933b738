package testbed

import (
	"cmp"
	"errors"
	"fmt"

	"github.com/iotbind/iotbind/internal/attacker"
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/protocol"
)

// Scenario is the victim situation an attack is launched into — where in
// the device's life cycle the moves run.
type Scenario int

// Victim scenarios.
const (
	// ScenarioSteadyControl: the victim has completed setup and controls
	// the device (the Table II control state).
	ScenarioSteadyControl Scenario = iota + 1
	// ScenarioPreSetup: the device is still in its box; the victim sets
	// it up only after the moves ran (the initial state).
	ScenarioPreSetup
	// ScenarioSetupWindow: the moves run inside the victim's setup, after
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

// Goals lists the goals the scenario is probed for (Reached), in probe
// order: the read-only probes before the hijack probe, which pumps a
// device heartbeat.
func (s Scenario) Goals() []core.Goal {
	if s < 1 || int(s) >= len(scenarioGoals) {
		return nil
	}
	return scenarioGoals[s]
}

var scenarioGoals = [...][]core.Goal{
	ScenarioSteadyControl: {core.GoalStealData, core.GoalDisconnect, core.GoalInjectData, core.GoalHijack},
	ScenarioPreSetup:      {core.GoalOccupy},
	ScenarioSetupWindow:   {core.GoalHijack},
}

// injectedReading is the sentinel value of the fake reading
// MoveForgeDataHeartbeat reports and the injection probe (Reached) looks
// for.
const injectedReading = 9999

// Pre-built refusals of MoveForgeAnyUnbind: a blocked cell of the attack
// matrix should cost no more allocations than a landed one.
var (
	errUnbindUnconfirmed = fmt.Errorf("testbed: the unbinding step could not be confirmed: %w", attacker.ErrForgeryUnavailable)
	errStillBound        = errors.New("testbed: no forged unbind disconnected the victim")
)

// rigError marks a failure of the rig's own machinery — the victim's
// move, a shadow probe — so it is never filed as a rejected forgery.
type rigError struct{ error }

// Forge performs one move against the victim's device: an adversary's
// forgery, or the victim's or their device's own move. A nil error means
// the move went through; otherwise it is the cloud's rejection of a
// forgery, or wraps attacker.ErrForgeryUnavailable when the adversary
// lacks the device-protocol knowledge to craft the message.
// MoveVictimSetup is the pre-setup scenario's own setup (Stage), and the
// delegation sub-model's moves have no live counterpart here.
func (tb *Testbed) Forge(m core.Move) error {
	switch m {
	case core.MoveForgeRegister:
		_, err := tb.atk.ForgeStatus(tb.deviceID, protocol.StatusRegister, nil)
		return err
	case core.MoveForgeDataHeartbeat:
		// The cloud copies readings in, so the rig's own slice serves.
		tb.injected[0] = protocol.Reading{Name: "power_w", Value: injectedReading}
		_, err := tb.atk.ForgeStatus(tb.deviceID, protocol.StatusHeartbeat, tb.injected[:])
		return err
	case core.MoveForgeBind:
		_, err := tb.atk.ForgeBind(tb.deviceID)
		return err
	case core.MoveForgeUnbindUserToken:
		return tb.atk.ForgeUnbind(tb.deviceID, core.UnbindDevIDUserToken)
	case core.MoveForgeUnbindDevID:
		return tb.atk.ForgeUnbind(tb.deviceID, core.UnbindDevIDAlone)
	case core.MoveForgeAnyUnbind:
		return tb.forgeAnyUnbind()
	case core.MoveDeviceReregisters:
		if err := tb.dev.Reregister(); err != nil {
			return rigError{err}
		}
		return nil
	case core.MoveParkSecret:
		if err := tb.victim.PushSchedule(tb.deviceID, protocol.UserData{
			Kind: "schedule", Body: "unlock 08:00, lock 22:00",
		}); err != nil {
			return rigError{err}
		}
		return nil
	default:
		return rigError{fmt.Errorf("testbed: no live move %v", m)}
	}
}

// forgeAnyUnbind is MoveForgeAnyUnbind. The probe after each accepted
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

// window is the setup-window scenario's launch: armed, the rig's pre-bind
// hook launches moves and records that it ran and what launch returned.
type window struct {
	armed, strict, ran bool
	moves              []core.Move
	rejected, err      error
}

// launch performs the moves in order. Strict (the harness) it stops at the
// first rejected move; otherwise (the searcher) the adversary simply tries
// them all and rejected is the first refusal. A rig failure ends the
// launch either way and is returned as err.
func (tb *Testbed) launch(moves []core.Move, strict bool) (rejected, err error) {
	for _, m := range moves {
		ferr := tb.Forge(m)
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

// setupAfterMoves is the victim's setup after the adversary's moves. One
// that ends with the device bound to nobody, so not to the adversary,
// failed on its own: the rig's error. Any other failure is the attack's.
func (tb *Testbed) setupAfterMoves() (setupErr, err error) {
	if setupErr = tb.SetupVictim(); setupErr == nil {
		return nil, nil
	}
	if st, err := tb.Shadow(); err != nil || st.BoundUser == "" {
		return nil, cmp.Or(err, setupErr)
	}
	return setupErr, nil
}

// Stage is the one live attack executor: it resets the testbed for the
// design, as Reset does with opts, puts the victim into the scenario,
// launches the moves at the scenario's injection point, and finishes the
// victim's side. The reset, and the steady scenario's setup after it, run
// once per design and device ID on a testbed: the next Stage for the
// same ones rewinds the rig to the world they left (checkpoint).
//
//   - steady-control: the victim's complete setup, then the moves.
//   - pre-setup: the moves, then the victim's setup; a trailing
//     victim-setup names that setup, as the checker's setup-time
//     counterexamples end in it.
//   - setup-window: the victim's raw device setup, the moves running from
//     its pre-bind hook; launched is false when the design's setup never
//     opens that window.
//
// rejected is a move the cloud refused or the adversary could not craft.
// setupErr is the outcome of a victim setup that ran after or around the
// moves, where failing can be the attack's doing. err is a failure of the
// rig itself — the victim's own move, a setup the attack cannot have
// touched or one left bound to nobody — and never an attack outcome.
func (tb *Testbed) Stage(design core.DesignSpec, sc Scenario, moves []core.Move, strict bool, opts ...Option) (launched bool, rejected, setupErr, err error) {
	if err := tb.enter(design, configure(opts), sc == ScenarioSteadyControl); err != nil {
		return false, nil, nil, err
	}
	switch sc {
	case ScenarioSteadyControl:
		rejected, err = tb.launch(moves, strict)
		return true, rejected, nil, err

	case ScenarioPreSetup:
		if n := len(moves); n > 0 && moves[n-1] == core.MoveVictimSetup {
			moves = moves[:n-1]
		}
		rejected, err = tb.launch(moves, strict)
		if err != nil {
			return true, rejected, nil, err
		}
		if !strict || rejected == nil {
			setupErr, err = tb.setupAfterMoves()
			return true, rejected, setupErr, err
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
		// The rig's pre-bind hook runs the armed window: no closure per
		// cell, since the attack matrix's gate leaves about 0.06
		// allocations a cell (DESIGN.md §3).
		tb.window = window{armed: true, moves: moves, strict: strict}
		setupErr = tb.victim.SetupDevice(tb.dev.LocalName(), tb.actions)
		w := tb.window
		tb.window = window{}
		return w.ran, w.rejected, setupErr, w.err

	default:
		return false, nil, nil, fmt.Errorf("testbed: unknown scenario %v", sc)
	}
}
