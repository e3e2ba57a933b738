package core

import "fmt"

// Move is one step of an attack on the binding, in the one vocabulary the
// model checker's counterexamples, the live rig's procedures and the
// discovery searcher's sequences are all written in: a message the remote
// adversary forges from nothing but the leaked device ID and their own
// account, a move of the victim or of their device, or a move of the
// delegation sub-model. A checker counterexample therefore runs live as it
// stands. The numbers fit a byte, so the checker's explorer carries a Move
// in every recorded edge.
type Move uint8

// The moves.
const (
	// MoveForgeRegister: a forged registration status message.
	MoveForgeRegister Move = iota + 1
	// MoveForgeDataHeartbeat: a forged heartbeat carrying a fake sensor
	// reading (and collecting whatever the cloud returns).
	MoveForgeDataHeartbeat
	// MoveForgeBind: a forged binding message pairing the victim's device
	// with the adversary's identity.
	MoveForgeBind
	// MoveForgeUnbindUserToken: Unbind:(DevId, the adversary's UserToken).
	MoveForgeUnbindUserToken
	// MoveForgeUnbindDevID: Unbind:DevId.
	MoveForgeUnbindDevID
	// MoveForgeAnyUnbind is A4-3's "Unbind : DevId or (DevId, UserToken)":
	// each unbind form the design supports, until the victim is unbound.
	MoveForgeAnyUnbind
	// MoveDeviceReregisters: the real device reconnects and registers
	// again, with nothing else (no reset notice, no device-sent bind).
	MoveDeviceReregisters
	// MoveVictimSetup: the victim's complete setup flow (DesignSpec.Setup).
	MoveVictimSetup
	// MoveParkSecret: the victim's app parks a private schedule for the
	// device — the data-stealing target.
	MoveParkSecret

	// The delegation sub-model's moves: one owner, one guest, one
	// sub-guest.
	MoveOwnerDelegateFull
	MoveOwnerDelegateReadOnly
	MoveGuestRedelegateCtl
	MoveGuestRedelegateRead
	MoveOwnerRevokeGuest
	MoveGuestControlBegin
	MoveGuestControlLand
	MoveSubguestControlToken
	MoveSubguestControlUser
)

// moveNames names each move, indexed by move (row 0 is the zero value).
var moveNames = [...]string{
	MoveForgeRegister:         "forge-register",
	MoveForgeDataHeartbeat:    "forge-data-heartbeat",
	MoveForgeBind:             "forge-bind",
	MoveForgeUnbindUserToken:  "forge-unbind-usertoken",
	MoveForgeUnbindDevID:      "forge-unbind-devid",
	MoveForgeAnyUnbind:        "forge-any-unbind",
	MoveDeviceReregisters:     "device-reregisters",
	MoveVictimSetup:           "victim-setup",
	MoveParkSecret:            "park-secret",
	MoveOwnerDelegateFull:     "owner-delegates-guest-control",
	MoveOwnerDelegateReadOnly: "owner-delegates-guest-readonly",
	MoveGuestRedelegateCtl:    "guest-redelegates-control",
	MoveGuestRedelegateRead:   "guest-redelegates-read",
	MoveOwnerRevokeGuest:      "owner-revokes-guest",
	MoveGuestControlBegin:     "guest-control-verifies-token",
	MoveGuestControlLand:      "guest-control-lands",
	MoveSubguestControlToken:  "subguest-controls-with-token",
	MoveSubguestControlUser:   "subguest-controls-with-usertoken",
}

// String implements fmt.Stringer.
func (m Move) String() string {
	if m < 1 || int(m) >= len(moveNames) {
		return fmt.Sprintf("Move(%d)", int(m))
	}
	return moveNames[m]
}

// Goal is an adversarial objective on the binding, named from both sides:
// the safety property the model checker decides (String, "no-hijack") and
// the objective the discovery searcher reaches live (Objective,
// "hijack-device").
type Goal int

// The goals, in the order the checker reports its properties.
const (
	// GoalHijack: the adversary commands the victim's real device.
	GoalHijack Goal = iota + 1
	// GoalDisconnect: the victim loses the binding to their device (the
	// A2/A3/A4 family's disconnection effect).
	GoalDisconnect
	// GoalStealData: the adversary receives the victim's pending private
	// data.
	GoalStealData
	// GoalInjectData: a forged reading reaches the still-bound victim.
	GoalInjectData
	// GoalOccupy: the victim cannot complete a fresh setup, whatever the
	// adversary did first (binding denial of service, A2).
	GoalOccupy
	// GoalResidualControl: a credential derived from the evicted guest's
	// authority commands the device (A6-1).
	GoalResidualControl
	// GoalEscalate: a grantee exercises a scope its grantor lacks (A6-2).
	GoalEscalate
	// GoalStaleControl: a control verified before the guest's revocation
	// lands after it (A6-3). The three delegation goals are not among the
	// properties Check reports.
	GoalStaleControl
)

// goals names each goal twice, indexed by goal (row 0 is the zero value).
var goals = [...]struct{ property, objective string }{
	GoalHijack:     {"no-hijack", "hijack-device"},
	GoalDisconnect: {"binding-preserved", "disconnect-victim"},
	GoalStealData:  {"no-data-theft", "steal-user-data"},
	GoalInjectData: {"no-data-injection", "inject-fake-data"},
	GoalOccupy:     {"victim-can-bind", "occupy-binding"},

	GoalResidualControl: {"eviction-revokes-derived-grants", "keep-control-after-eviction"},
	GoalEscalate:        {"no-scope-escalation", "escalate-delegated-scope"},
	GoalStaleControl:    {"revocation-stops-inflight-control", "land-control-after-revocation"},
}

// AllGoals lists the binding model's goals, the five Check reports, in
// declaration order.
func AllGoals() []Goal {
	return []Goal{GoalHijack, GoalDisconnect, GoalStealData, GoalInjectData, GoalOccupy}
}

// String implements fmt.Stringer: the safety property that forbids the
// goal.
func (g Goal) String() string {
	if g < 1 || int(g) >= len(goals) {
		return fmt.Sprintf("Goal(%d)", int(g))
	}
	return goals[g].property
}

// Objective names the goal as the adversary's objective.
func (g Goal) Objective() string {
	if g < 1 || int(g) >= len(goals) {
		return fmt.Sprintf("Goal(%d)", int(g))
	}
	return goals[g].objective
}
