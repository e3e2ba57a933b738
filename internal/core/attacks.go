package core

import "fmt"

// AttackClass is one of the four attack classes of Table II.
type AttackClass int

// The four attack classes.
const (
	// A1DataInjectionStealing: forged status messages let the attacker act
	// as the user's device, injecting fake sensor data or receiving the
	// user's private data.
	A1DataInjectionStealing AttackClass = iota + 1
	// a2BindingDoS: the attacker occupies the binding of a user's device
	// before the user binds, denying the legitimate binding.
	a2BindingDoS
	// A3DeviceUnbinding: the attacker disconnects the user from the
	// user's device.
	A3DeviceUnbinding
	// A4DeviceHijacking: the attacker takes absolute control of the
	// user's device.
	A4DeviceHijacking
	// A6DelegationAbuse: authority the owner delegated outlives, outgrows
	// or outraces the owner's grant.
	A6DelegationAbuse
)

// attackClasses holds each class's label and the consequence wording of
// Table II, indexed by class (row 0 is the zero value).
var attackClasses = [...]struct{ label, description string }{
	A1DataInjectionStealing: {"A1", "The attacker can inject fake device data or steal private user data."},
	a2BindingDoS:            {"A2", "The attacker can cause denial-of-service to the user's binding operation."},
	A3DeviceUnbinding:       {"A3", "The attacker can disconnect the device with the user."},
	A4DeviceHijacking:       {"A4", "The attacker can take absolute control of the device."},
	A6DelegationAbuse:       {"A6", "A guest or sub-guest can command the device beyond the owner's grant."},
}

// String implements fmt.Stringer.
func (c AttackClass) String() string {
	if c < 1 || int(c) >= len(attackClasses) {
		return fmt.Sprintf("AttackClass(%d)", int(c))
	}
	return attackClasses[c].label
}

// Description returns the consequence wording of Table II.
func (c AttackClass) Description() string {
	if c < 1 || int(c) >= len(attackClasses) {
		return ""
	}
	return attackClasses[c].description
}

// AttackVariant identifies a concrete attack procedure from Table II,
// including the numbered sub-variants of A3 and A4.
type AttackVariant int

// The attack variants of Table II.
const (
	// VariantA1 forges Status:DevId in the control or bound state.
	VariantA1 AttackVariant = iota + 1
	// VariantA2 forges Bind:(DevId, UserToken) in the initial state.
	VariantA2
	// VariantA3x1 forges Unbind:DevId in the control state.
	VariantA3x1
	// VariantA3x2 forges Unbind:(DevId, UserToken) with the attacker's
	// token in the control state.
	VariantA3x2
	// VariantA3x3 forges Bind:(DevId, UserToken) in the control state to
	// replace (and thereby sever) the user's binding.
	VariantA3x3
	// VariantA3x4 forges Status:DevId in the control state so the cloud
	// adopts the attacker as a new device instance and disconnects the
	// real device.
	VariantA3x4
	// VariantA4x1 forges Bind:(DevId, UserToken) in the control state and
	// takes over control.
	VariantA4x1
	// VariantA4x2 forges Bind:(DevId, UserToken) in the online state
	// (setup time window) and takes over control.
	VariantA4x2
	// VariantA4x3 chains an unbind forgery (A3-1 or A3-2) with a bind
	// forgery to hijack a device from the control state.
	VariantA4x3
	// VariantA6x1: after the owner evicts the guest, the sub-guest's
	// grant derived from the guest's authority still commands the device.
	VariantA6x1
	// VariantA6x2: a read-only guest re-delegates control, and the
	// sub-guest exercises a scope its grantor never held.
	VariantA6x2
	// VariantA6x3: a guest control that passed token verification before
	// the owner's revocation lands after it.
	VariantA6x3
)

// tableII is Table II: one row per attack variant, indexed by the variant
// (row 0 is the zero value every column method returns for an unknown
// variant). Past the paper's columns each row states its launch in the
// attacker vocabulary, which the live rig runs and the model checker
// answers. Adding a variant is one constant above and one row here. The
// A6 rows, extending the table to sub-user bindings, have no paper
// columns: they launch in the delegation sub-model's empty lattice.
var tableII = [...]struct {
	label   string
	class   AttackClass
	forged  string        // the "forged message types" column
	targets []ShadowState // the "targeted states" column; the first is where a launch starts
	end     ShadowState   // the "end states" column, for a successful launch
	moves   []Move        // the forged messages, as moves
	goals   []Goal        // all reached by a successful launch
	unless  Goal          // if set, not reached by a successful launch
}{
	VariantA1: {"A1", A1DataInjectionStealing, "Status : DevId", []ShadowState{StateControl, StateBound}, StateControl,
		[]Move{MoveForgeDataHeartbeat}, []Goal{GoalInjectData, GoalStealData}, 0},
	VariantA2: {"A2", a2BindingDoS, "Bind : (DevId, UserToken)", []ShadowState{StateInitial}, StateBound,
		[]Move{MoveForgeBind}, []Goal{GoalOccupy}, 0},
	VariantA3x1: {"A3-1", A3DeviceUnbinding, "Unbind : DevId", []ShadowState{StateControl}, StateOnline,
		[]Move{MoveForgeUnbindDevID}, []Goal{GoalDisconnect}, 0},
	VariantA3x2: {"A3-2", A3DeviceUnbinding, "Unbind : (DevId, UserToken)", []ShadowState{StateControl}, StateOnline,
		[]Move{MoveForgeUnbindUserToken}, []Goal{GoalDisconnect}, 0},
	VariantA3x3: {"A3-3", A3DeviceUnbinding, "Bind : (DevId, UserToken)", []ShadowState{StateControl}, StateOnline,
		[]Move{MoveForgeBind}, []Goal{GoalDisconnect}, GoalHijack},
	VariantA3x4: {"A3-4", A3DeviceUnbinding, "Status : DevId", []ShadowState{StateControl}, StateOnline,
		[]Move{MoveForgeRegister}, []Goal{GoalDisconnect}, 0},
	VariantA4x1: {"A4-1", A4DeviceHijacking, "Bind : (DevId, UserToken)", []ShadowState{StateControl}, StateControl,
		[]Move{MoveForgeBind}, []Goal{GoalHijack}, 0},
	VariantA4x2: {"A4-2", A4DeviceHijacking, "Bind : (DevId, UserToken)", []ShadowState{StateOnline}, StateControl,
		[]Move{MoveForgeBind}, []Goal{GoalHijack}, 0},
	VariantA4x3: {"A4-3", A4DeviceHijacking, "Unbind : DevId or (DevId, UserToken); then Bind : (DevId, UserToken)", []ShadowState{StateControl}, StateControl,
		[]Move{MoveForgeAnyUnbind, MoveForgeBind}, []Goal{GoalHijack}, 0},
	VariantA6x1: {"A6-1 evicted-guest-residual-control", A6DelegationAbuse, "", nil, 0,
		[]Move{MoveOwnerDelegateFull, MoveGuestRedelegateCtl, MoveOwnerRevokeGuest, MoveSubguestControlToken}, []Goal{GoalResidualControl}, 0},
	VariantA6x2: {"A6-2 re-delegation-privilege-escalation", A6DelegationAbuse, "", nil, 0,
		[]Move{MoveOwnerDelegateReadOnly, MoveGuestRedelegateCtl, MoveSubguestControlUser}, []Goal{GoalEscalate}, 0},
	VariantA6x3: {"A6-3 revocation-race-window", A6DelegationAbuse, "", nil, 0,
		[]Move{MoveOwnerDelegateFull, MoveGuestControlBegin, MoveOwnerRevokeGuest, MoveGuestControlLand}, []Goal{GoalStaleControl}, 0},
}

// row returns the variant's Table II row, the zero row when unknown.
func (v AttackVariant) row() int {
	if v < 1 || int(v) >= len(tableII) {
		return 0
	}
	return int(v)
}

// AllAttackVariants lists the paper's nine variants in Table II order.
func AllAttackVariants() []AttackVariant {
	all := make([]AttackVariant, 0, VariantA4x3)
	for v := VariantA1; v <= VariantA4x3; v++ {
		all = append(all, v)
	}
	return all
}

// DelegationVariants lists the A6 rows in order.
func DelegationVariants() []AttackVariant {
	return []AttackVariant{VariantA6x1, VariantA6x2, VariantA6x3}
}

// Class returns the attack class the variant belongs to.
func (v AttackVariant) Class() AttackClass { return tableII[v.row()].class }

// String implements fmt.Stringer using the paper's labels.
func (v AttackVariant) String() string {
	if v.row() == 0 {
		return fmt.Sprintf("AttackVariant(%d)", int(v))
	}
	return tableII[v].label
}

// ForgedMessage returns the Table II "forged message types" column for the
// variant.
func (v AttackVariant) ForgedMessage() string { return tableII[v.row()].forged }

// TargetStates returns the shadow states in which the variant is launched
// (the Table II "targeted states" column).
func (v AttackVariant) TargetStates() []ShadowState {
	return append([]ShadowState(nil), tableII[v.row()].targets...)
}

// EndState returns the shadow state a *successful* launch of the variant
// leaves the victim's device shadow in (the Table II "end states" column).
func (v AttackVariant) EndState() ShadowState { return tableII[v.row()].end }

// LaunchState returns the targeted state a launch of the variant starts
// from — the first of TargetStates: the steady control state, the initial
// state before the owner's setup, or the online state inside it; 0 for an
// A6 row.
func (v AttackVariant) LaunchState() ShadowState {
	if targets := tableII[v.row()].targets; len(targets) > 0 {
		return targets[0]
	}
	return 0
}

// Moves returns the variant's forged messages as moves, in launch order.
// The slice is shared; do not modify it.
func (v AttackVariant) Moves() []Move { return tableII[v.row()].moves }

// Goals returns the goals a successful launch reaches, all of them. The
// slice is shared; do not modify it.
func (v AttackVariant) Goals() []Goal { return tableII[v.row()].goals }

// Unless returns the goal a successful launch must not reach, or 0: A3-3's
// replacement binding must not hand the attacker control (that is A4-1).
func (v AttackVariant) Unless() Goal { return tableII[v.row()].unless }

// Outcome is the result of attempting an attack against a design, matching
// the cell vocabulary of Table III.
type Outcome int

// Attack outcomes.
const (
	// OutcomeFailed: the attack failed to launch (✗).
	OutcomeFailed Outcome = iota + 1
	// OutcomeSucceeded: the attack was successfully launched (✓).
	OutcomeSucceeded
	// OutcomeUnconfirmed: the attack could not be confirmed, e.g. because
	// the firmware resisted analysis (O).
	OutcomeUnconfirmed
	// OutcomeNotApplicable: the design does not expose the operation the
	// attack forges (N.A.).
	OutcomeNotApplicable
)

// String renders the Table III cell mark.
func (o Outcome) String() string {
	switch o {
	case OutcomeFailed:
		return "✗"
	case OutcomeSucceeded:
		return "✓"
	case OutcomeUnconfirmed:
		return "O"
	case OutcomeNotApplicable:
		return "N.A."
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Succeeded reports whether the outcome is a confirmed success.
func (o Outcome) Succeeded() bool { return o == OutcomeSucceeded }
