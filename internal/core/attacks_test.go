package core

import "testing"

// TestTable2Vocabulary checks that the attack-variant metadata reproduces
// the columns of Table II.
func TestTable2Vocabulary(t *testing.T) {
	tests := []struct {
		variant AttackVariant
		class   AttackClass
		label   string
		targets []ShadowState
		end     ShadowState
	}{
		{VariantA1, A1DataInjectionStealing, "A1", []ShadowState{StateControl, StateBound}, StateControl},
		{VariantA2, a2BindingDoS, "A2", []ShadowState{StateInitial}, StateBound},
		{VariantA3x1, A3DeviceUnbinding, "A3-1", []ShadowState{StateControl}, StateOnline},
		{VariantA3x2, A3DeviceUnbinding, "A3-2", []ShadowState{StateControl}, StateOnline},
		{VariantA3x3, A3DeviceUnbinding, "A3-3", []ShadowState{StateControl}, StateOnline},
		{VariantA3x4, A3DeviceUnbinding, "A3-4", []ShadowState{StateControl}, StateOnline},
		{VariantA4x1, A4DeviceHijacking, "A4-1", []ShadowState{StateControl}, StateControl},
		{VariantA4x2, A4DeviceHijacking, "A4-2", []ShadowState{StateOnline}, StateControl},
		{VariantA4x3, A4DeviceHijacking, "A4-3", []ShadowState{StateControl}, StateControl},
	}
	for _, tt := range tests {
		t.Run(tt.label, func(t *testing.T) {
			if got := tt.variant.Class(); got != tt.class {
				t.Errorf("Class() = %v, want %v", got, tt.class)
			}
			if got := tt.variant.String(); got != tt.label {
				t.Errorf("String() = %q, want %q", got, tt.label)
			}
			targets := tt.variant.TargetStates()
			if len(targets) != len(tt.targets) {
				t.Fatalf("TargetStates() = %v, want %v", targets, tt.targets)
			}
			for i := range targets {
				if targets[i] != tt.targets[i] {
					t.Errorf("TargetStates()[%d] = %v, want %v", i, targets[i], tt.targets[i])
				}
			}
			if got := tt.variant.EndState(); got != tt.end {
				t.Errorf("EndState() = %v, want %v", got, tt.end)
			}
			if tt.variant.ForgedMessage() == "" {
				t.Error("ForgedMessage() is empty")
			}
		})
	}
}

func TestAllAttackVariantsCoverAllClasses(t *testing.T) {
	if n := len(AllAttackVariants()); n != 9 {
		t.Fatalf("AllAttackVariants() has %d variants, want the nine of Table II", n)
	}
	byClass := make(map[AttackClass]int)
	for _, v := range AllAttackVariants() {
		byClass[v.Class()]++
	}
	want := map[AttackClass]int{
		A1DataInjectionStealing: 1,
		a2BindingDoS:            1,
		A3DeviceUnbinding:       4,
		A4DeviceHijacking:       3,
	}
	for class, n := range want {
		if byClass[class] != n {
			t.Errorf("class %v has %d variants, want %d", class, byClass[class], n)
		}
	}
}

// TestDelegationRows: the A6 rows follow the paper's nine, each of class
// A6, with delegation moves, one goal outside AllGoals and no paper
// columns.
func TestDelegationRows(t *testing.T) {
	want := map[AttackVariant]string{
		VariantA6x1: "A6-1 evicted-guest-residual-control",
		VariantA6x2: "A6-2 re-delegation-privilege-escalation",
		VariantA6x3: "A6-3 revocation-race-window",
	}
	all := DelegationVariants()
	if len(all) != len(want) || len(tableII) != len(AllAttackVariants())+len(all)+1 {
		t.Fatalf("DelegationVariants() = %v, tableII %d rows", all, len(tableII)-1)
	}
	for _, v := range all {
		if v.String() != want[v] || v.Class() != A6DelegationAbuse || v.LaunchState() != 0 || v.ForgedMessage() != "" {
			t.Errorf("%d: %q, class %v, launch %v, forged %q", int(v), v.String(), v.Class(), v.LaunchState(), v.ForgedMessage())
		}
		for _, m := range v.Moves() {
			if m < MoveOwnerDelegateFull {
				t.Errorf("%v: %v is no delegation move", v, m)
			}
		}
		if g := v.Goals(); len(g) != 1 || g[0] <= GoalOccupy {
			t.Errorf("%v: goals %v, want one delegation goal", v, g)
		}
	}
}

func TestAttackClassDescriptions(t *testing.T) {
	for _, c := range []AttackClass{A1DataInjectionStealing, a2BindingDoS, A3DeviceUnbinding, A4DeviceHijacking, A6DelegationAbuse} {
		if c.Description() == "" {
			t.Errorf("class %v has empty description", c)
		}
	}
}

func TestOutcomeStrings(t *testing.T) {
	tests := []struct {
		outcome Outcome
		want    string
	}{
		{OutcomeFailed, "✗"},
		{OutcomeSucceeded, "✓"},
		{OutcomeUnconfirmed, "O"},
		{OutcomeNotApplicable, "N.A."},
	}
	for _, tt := range tests {
		if got := tt.outcome.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", int(tt.outcome), got, tt.want)
		}
	}
	if !OutcomeSucceeded.Succeeded() || OutcomeFailed.Succeeded() || OutcomeUnconfirmed.Succeeded() {
		t.Error("Succeeded() predicate is wrong")
	}
}

// TestEndStatesAreConsistentWithStateMachine verifies that every Table II
// end state is reachable from the corresponding target state via the shadow
// state machine using the forged message's event.
func TestEndStatesAreConsistentWithStateMachine(t *testing.T) {
	// Map each single-message variant to its primitive event.
	events := map[AttackVariant]Event{
		VariantA2:   EventBind,
		VariantA3x1: EventUnbind,
		VariantA3x2: EventUnbind,
	}
	for v, e := range events {
		for _, target := range v.TargetStates() {
			got, err := Next(target, e)
			if err != nil {
				t.Errorf("%v: Next(%v, %v): %v", v, target, e, err)
				continue
			}
			if got != v.EndState() {
				t.Errorf("%v: Next(%v, %v) = %v, want end state %v", v, target, e, got, v.EndState())
			}
		}
	}
}
