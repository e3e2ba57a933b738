// Package discover implements the automatic attack discovery the paper
// lists as future work (Section VIII): instead of hand-coding the Table II
// attack procedures, it searches breadth-first over sequences of attacker
// primitives — forged registrations, data heartbeats, binds and unbinds —
// executing every candidate sequence against the live emulation, reset
// in place for each, and checking which adversarial goals it achieves.
//
// The search needs no knowledge of the taxonomy: the two-step hijack
// chain the paper constructs manually against device #8 (A4-3) falls out
// as the minimal sequence [forge-unbind-devid, forge-bind] for the hijack
// goal, and the secure reference designs yield no sequence for any goal at
// any depth. What it shares with the Table II harness is the rig, not the
// rows: the moves and the goals are core's (core.Move, core.Goal), the
// vocabulary the model checker's counterexamples are written in; the
// testbed owns the victim scenarios, the executor that launches moves into
// them (testbed.Stage) and each goal's live probe (testbed.Reached); the
// search alphabet and the minimality rule are here.
package discover

import (
	"fmt"

	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/testbed"
)

// AllActions lists the attacker primitives the searcher composes — the
// search alphabet: single forged messages built from nothing but the
// leaked device ID and the attacker's own account.
func AllActions() []core.Move {
	return []core.Move{
		core.MoveForgeRegister,
		core.MoveForgeDataHeartbeat,
		core.MoveForgeBind,
		core.MoveForgeUnbindUserToken,
		core.MoveForgeUnbindDevID,
	}
}

// AllScenarios lists the victim situations the searcher runs sequences
// against.
func AllScenarios() []testbed.Scenario {
	return []testbed.Scenario{testbed.ScenarioSteadyControl, testbed.ScenarioPreSetup, testbed.ScenarioSetupWindow}
}

// Attack is one discovered minimal attack: a scenario, a goal, and the
// shortest action sequence that achieves it.
type Attack struct {
	// Scenario is the victim situation.
	Scenario testbed.Scenario
	// Goal is the objective achieved.
	Goal core.Goal
	// Sequence is a minimal-length action sequence achieving the goal.
	Sequence []core.Move
}

// String renders "scenario: objective via [actions]".
func (a Attack) String() string {
	return fmt.Sprintf("%v: %s via %v", a.Scenario, a.Goal.Objective(), a.Sequence)
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
	tb := new(testbed.Testbed) // every sequence runs on it, reset
	for _, scenario := range AllScenarios() {
		found, err := searchScenario(tb, design, scenario, maxDepth)
		if err != nil {
			return nil, err
		}
		attacks = append(attacks, found...)
	}
	return attacks, nil
}

// searchScenario runs the per-scenario breadth-first search.
func searchScenario(tb *testbed.Testbed, design core.DesignSpec, scenario testbed.Scenario, maxDepth int) ([]Attack, error) {
	var (
		attacks []Attack
		solved  = make(map[core.Goal]bool)
	)
	frontier := [][]core.Move{nil}
	for depth := 1; depth <= maxDepth; depth++ {
		var next [][]core.Move
		var solvedThisDepth []core.Goal
		for _, prefix := range frontier {
			for _, act := range AllActions() {
				seq := append(append([]core.Move(nil), prefix...), act)
				next = append(next, seq)
				achieved, err := execute(tb, design, scenario, seq)
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

// execute launches one sequence into the scenario on tb, reset for the
// design — non-strict: the adversary simply tries every move — and
// reports the goals it achieved, probed in the scenario's probe order.
func execute(tb *testbed.Testbed, design core.DesignSpec, scenario testbed.Scenario, seq []core.Move) ([]core.Goal, error) {
	if err := tb.Reset(design); err != nil {
		return nil, err
	}
	if scenario == testbed.ScenarioSteadyControl {
		// The victim parks private data for the device — the stealing
		// target — before the adversary moves.
		seq = append([]core.Move{core.MoveParkSecret}, seq...)
	}
	launched, _, setupErr, err := tb.Stage(scenario, seq, false)
	if err != nil || !launched {
		return nil, err
	}
	var achieved []core.Goal
	for _, goal := range scenario.Goals() {
		reached, err := tb.Reached(goal, setupErr)
		if err != nil {
			return nil, err
		}
		if reached {
			achieved = append(achieved, goal)
		}
	}
	return achieved, nil
}
