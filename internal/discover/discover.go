// Package discover implements the automatic attack discovery the paper
// lists as future work (Section VIII): instead of hand-coding the Table II
// attack procedures, it searches breadth-first over sequences of attacker
// primitives — forged registrations, data heartbeats, binds and unbinds —
// executing every candidate sequence against a fresh live emulation and
// checking which adversarial goals it achieves.
//
// The search needs no knowledge of the taxonomy: the two-step hijack
// chain the paper constructs manually against device #8 (A4-3) falls out
// as the minimal sequence [forge-unbind-devid, forge-bind] for the hijack
// goal, and the secure reference designs yield no sequence for any goal at
// any depth. What it shares with the Table II harness is the rig, not the
// rows: the testbed owns the forged-message primitives, the victim
// scenarios and the executor that launches one into the other
// (testbed.Stage); the search, the goals and the minimality rule are here.
package discover

import (
	"fmt"

	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/testbed"
)

// Action is one attacker primitive the searcher can compose: a single
// forged message built from nothing but the leaked device ID and the
// attacker's own account.
type Action = testbed.Step

// The attacker's primitive moves — the search alphabet.
const (
	ActForgeRegister        = testbed.StepForgeRegister
	ActForgeDataHeartbeat   = testbed.StepForgeDataHeartbeat
	ActForgeBind            = testbed.StepForgeBind
	ActForgeUnbindUserToken = testbed.StepForgeUnbindUserToken
	ActForgeUnbindDevID     = testbed.StepForgeUnbindDevID
)

// AllActions lists the attacker primitives.
func AllActions() []Action {
	return []Action{
		ActForgeRegister,
		ActForgeDataHeartbeat,
		ActForgeBind,
		ActForgeUnbindUserToken,
		ActForgeUnbindDevID,
	}
}

// Goal is an adversarial objective the searcher tries to reach.
type Goal int

// Adversarial goals, mirroring the consequences of Table II.
const (
	// GoalDisconnect: the victim loses the binding to their device.
	GoalDisconnect Goal = iota + 1
	// GoalHijack: the attacker commands the victim's real device.
	GoalHijack
	// GoalStealData: the attacker receives the victim's private data.
	GoalStealData
	// GoalInjectData: a fake reading reaches the still-bound victim.
	GoalInjectData
	// GoalOccupy: the victim cannot complete a fresh setup (binding
	// denial of service; evaluated in the pre-setup scenario).
	GoalOccupy
)

// AllGoals lists the goals.
func AllGoals() []Goal {
	return []Goal{GoalDisconnect, GoalHijack, GoalStealData, GoalInjectData, GoalOccupy}
}

var goalNames = [...]string{
	GoalDisconnect: "disconnect-victim",
	GoalHijack:     "hijack-device",
	GoalStealData:  "steal-user-data",
	GoalInjectData: "inject-fake-data",
	GoalOccupy:     "occupy-binding",
}

// String implements fmt.Stringer.
func (g Goal) String() string {
	if g < 1 || int(g) >= len(goalNames) {
		return fmt.Sprintf("Goal(%d)", int(g))
	}
	return goalNames[g]
}

// Scenario is the victim situation a sequence runs against.
type Scenario = testbed.Scenario

// Victim scenarios.
const (
	ScenarioSteadyControl = testbed.ScenarioSteadyControl
	ScenarioPreSetup      = testbed.ScenarioPreSetup
	ScenarioSetupWindow   = testbed.ScenarioSetupWindow
)

// AllScenarios lists the scenarios.
func AllScenarios() []Scenario {
	return []Scenario{ScenarioSteadyControl, ScenarioPreSetup, ScenarioSetupWindow}
}

// Attack is one discovered minimal attack: a scenario, a goal, and the
// shortest action sequence that achieves it.
type Attack struct {
	// Scenario is the victim situation.
	Scenario Scenario
	// Goal is the objective achieved.
	Goal Goal
	// Sequence is a minimal-length action sequence achieving the goal.
	Sequence []Action
}

// String renders "scenario: goal via [actions]".
func (a Attack) String() string {
	return fmt.Sprintf("%v: %v via %v", a.Scenario, a.Goal, a.Sequence)
}

// Search explores attacker action sequences up to maxDepth against the
// design and returns, for every (scenario, goal) pair that is reachable,
// the minimal sequences achieving it (all sequences of the first depth at
// which the goal is reached, in deterministic order).
func Search(design core.DesignSpec, maxDepth int) ([]Attack, error) {
	if maxDepth < 1 {
		return nil, fmt.Errorf("discover: maxDepth %d must be at least 1", maxDepth)
	}
	var attacks []Attack
	for _, scenario := range AllScenarios() {
		found, err := searchScenario(design, scenario, maxDepth)
		if err != nil {
			return nil, err
		}
		attacks = append(attacks, found...)
	}
	return attacks, nil
}

// searchScenario runs the per-scenario breadth-first search.
func searchScenario(design core.DesignSpec, scenario Scenario, maxDepth int) ([]Attack, error) {
	var (
		attacks []Attack
		solved  = make(map[Goal]bool)
	)
	frontier := [][]Action{nil}
	for depth := 1; depth <= maxDepth; depth++ {
		var next [][]Action
		var solvedThisDepth []Goal
		for _, prefix := range frontier {
			for _, act := range AllActions() {
				seq := append(append([]Action(nil), prefix...), act)
				next = append(next, seq)
				achieved, err := execute(design, scenario, seq)
				if err != nil {
					return nil, fmt.Errorf("discover: %v %v: %w", scenario, seq, err)
				}
				for _, goal := range achieved {
					if solved[goal] {
						continue
					}
					attacks = append(attacks, Attack{Scenario: scenario, Goal: goal, Sequence: seq})
					solvedThisDepth = append(solvedThisDepth, goal)
				}
			}
		}
		// Minimality: a goal solved at this depth is closed for deeper
		// levels, but all sequences of the same depth are still
		// collected (the loop above ran the whole level already).
		for _, g := range solvedThisDepth {
			solved[g] = true
		}
		frontier = next
	}
	return attacks, nil
}

// execute launches one sequence into the scenario on a fresh testbed —
// non-strict: the adversary simply tries every step — and reports the
// goals it achieved.
func execute(design core.DesignSpec, scenario Scenario, seq []Action) ([]Goal, error) {
	tb, err := testbed.New(design)
	if err != nil {
		return nil, err
	}
	if scenario == ScenarioSteadyControl {
		// The victim parks private data for the device — the stealing
		// target — before the adversary moves.
		seq = append([]Action{testbed.StepParkSecret}, seq...)
	}
	launched, _, setupErr, err := tb.Stage(scenario, seq, false)
	if err != nil || !launched {
		return nil, err
	}

	switch scenario {
	case ScenarioSteadyControl:
		return assessSteady(tb)
	case ScenarioPreSetup:
		if setupErr != nil || !tb.VictimHasControl() {
			return []Goal{GoalOccupy}, nil
		}
	case ScenarioSetupWindow:
		if tb.AttackerHasControl() {
			return []Goal{GoalHijack}, nil
		}
	}
	return nil, nil
}

// assessSteady checks all steady-scenario goals. Read-only goals are
// evaluated before the hijack probe, which pumps device heartbeats.
func assessSteady(tb *testbed.Testbed) ([]Goal, error) {
	var achieved []Goal

	if len(tb.Attacker().StolenData()) > 0 {
		achieved = append(achieved, GoalStealData)
	}

	victimBound, err := tb.VictimBound()
	if err != nil {
		return nil, err
	}
	if !victimBound {
		achieved = append(achieved, GoalDisconnect)
	} else if injected, err := tb.VictimSeesInjectedReading(); err == nil && injected {
		// A refused read is simply no injection the victim could see.
		achieved = append(achieved, GoalInjectData)
	}

	if tb.AttackerHasControl() {
		achieved = append(achieved, GoalHijack)
	}
	return achieved, nil
}
