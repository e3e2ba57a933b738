package analysis

import (
	"fmt"

	"github.com/iotbind/iotbind/internal/core"
)

// TaxonomyRow is one row of the derived Table II.
type TaxonomyRow struct {
	// Variant is the attack procedure.
	Variant core.AttackVariant
	// ForgedMessage is the forged message column.
	ForgedMessage string
	// TargetStates are the shadow states the attack launches from.
	TargetStates []core.ShadowState
	// EndState is the shadow state a successful attack ends in.
	EndState core.ShadowState
	// Consequence is the consequence column.
	Consequence string
}

// DeriveTaxonomy regenerates Table II by replaying on the device-shadow
// state machine the events by which each row's goals show there, checking
// that the end state matches the taxonomy. The A3 rows use the victim's-
// binding view of the machine (the paper's "disconnect the device with the
// user" means the victim's binding is gone while the device stays online);
// the A2 and A4 rows use the raw shadow view (any binding counts).
//
// It returns an error if any variant's declared states are inconsistent
// with the state machine — i.e. if the taxonomy could not have been
// produced by the model.
func DeriveTaxonomy() ([]TaxonomyRow, error) {
	rows := make([]TaxonomyRow, 0, len(core.AllAttackVariants()))
	for _, v := range core.AllAttackVariants() {
		derived, err := deriveEndState(v)
		if err != nil {
			return nil, err
		}
		if derived != v.EndState() {
			return nil, fmt.Errorf("analysis: variant %v derives end state %v, taxonomy says %v", v, derived, v.EndState())
		}
		rows = append(rows, TaxonomyRow{
			Variant:       v,
			ForgedMessage: v.ForgedMessage(),
			TargetStates:  v.TargetStates(),
			EndState:      derived,
			Consequence:   v.Class().Description(),
		})
	}
	return rows, nil
}

// shows is how the victim's shadow sees each goal reached, as Figure 2
// events from a bound state; from an unbound one a leading unbind has
// nothing to revoke and is skipped.
var shows = [...][]core.Event{
	// A forged status keeps or makes the device online.
	core.GoalInjectData: {core.EventStatus},
	core.GoalStealData:  {core.EventStatus},
	// The attacker's binding, made while the device is offline.
	core.GoalOccupy: {core.EventBind},
	// The victim's binding revoked; the device stays online.
	core.GoalDisconnect: {core.EventUnbind},
	// The attacker's binding, in place of the victim's.
	core.GoalHijack: {core.EventUnbind, core.EventBind},
}

// deriveEndState replays, from each of the variant's target states, the
// events by which its goals show on the shadow, and returns the common end
// state.
func deriveEndState(v core.AttackVariant) (core.ShadowState, error) {
	var end core.ShadowState
	for _, target := range v.TargetStates() {
		state := target
		for _, g := range v.Goals() {
			events := shows[g]
			if events[0] == core.EventUnbind && !target.BoundToUser() {
				events = events[1:]
			}
			for _, e := range events {
				next, err := core.Next(state, e)
				if err != nil {
					return 0, fmt.Errorf("analysis: variant %v from %v: %w", v, target, err)
				}
				state = next
			}
		}
		if end != 0 && end != state {
			return 0, fmt.Errorf("analysis: variant %v reaches both %v and %v", v, end, state)
		}
		end = state
	}
	return end, nil
}
