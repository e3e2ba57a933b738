// Package core defines the device-shadow state machine and the
// design-description vocabulary for IoT remote-binding solutions, following
// the model of Chen et al., "Your IoTs Are (Not) Mine: On the Remote Binding
// Between IoT Devices and Users" (DSN 2019).
//
// The cloud maintains, for every device, a "device shadow" that tracks two
// orthogonal booleans: whether the device is online (authenticated and
// heartbeating) and whether it is bound to a user. The four combinations are
// the four states of Figure 2; the three primitive message types (Status,
// Bind, Unbind) drive the transitions between them.
package core

import "fmt"

// ShadowState is one of the four states of a device shadow (Figure 2).
type ShadowState int

// The four device-shadow states. Values start at one so the zero value is
// detectably invalid.
const (
	// StateInitial is offline and unbound: the factory/default state,
	// and the state after a bound device is reset while offline.
	StateInitial ShadowState = iota + 1
	// StateOnline is online and unbound: the device has authenticated to
	// the cloud but no user has bound it yet.
	StateOnline
	// StateControl is online and bound: the only state in which the bound
	// user can remotely control the device.
	StateControl
	// StateBound is offline and bound: the binding persists in the cloud
	// while the device is powered off or disconnected, or was created
	// before the device ever came online.
	StateBound
)

// AllStates lists every valid shadow state in declaration order.
func AllStates() []ShadowState {
	return []ShadowState{StateInitial, StateOnline, StateControl, StateBound}
}

// Online reports whether the device is authenticated and heartbeating in
// this state.
func (s ShadowState) Online() bool {
	return s == StateOnline || s == StateControl
}

// BoundToUser reports whether a binding exists in this state.
func (s ShadowState) BoundToUser() bool {
	return s == StateControl || s == StateBound
}

// Valid reports whether s is one of the four defined states.
func (s ShadowState) Valid() bool {
	return s >= StateInitial && s <= StateBound
}

// String implements fmt.Stringer using the paper's state names.
func (s ShadowState) String() string {
	switch s {
	case StateInitial:
		return "initial"
	case StateOnline:
		return "online"
	case StateControl:
		return "control"
	case StateBound:
		return "bound"
	default:
		return fmt.Sprintf("ShadowState(%d)", int(s))
	}
}

// stateOf returns the shadow state encoding the two status booleans the
// cloud tracks for a device: online (device authenticated recently) and
// bound (a binding exists).
func stateOf(online, bound bool) ShadowState {
	switch {
	case online && bound:
		return StateControl
	case online && !bound:
		return StateOnline
	case !online && bound:
		return StateBound
	default:
		return StateInitial
	}
}
