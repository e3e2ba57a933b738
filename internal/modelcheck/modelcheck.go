// Package modelcheck formally verifies remote-binding security properties
// by exhaustive state-space exploration — the direction the paper points
// at when it notes that vendors' homemade binding solutions "are not
// formally verified" (Section IX).
//
// A design induces a small abstract transition system: the state tracks
// who holds the binding, whether the real device still holds the current
// session credentials, and what the adversary has achieved; the moves are
// the adversary's forgeries plus the device's own re-registration. Because
// the abstraction is finite, the checker explores it to a fixpoint —
// every reachable state, not a bounded prefix — and decides five safety
// properties, producing a minimal counterexample trace for each violation.
//
// The abstraction is the third independent formalization of the binding
// semantics in this repository (after the rule-based analyzer and the
// concrete emulation); the test suite proves all three agree on every
// vendor profile and on a seeded sample of the design lattice — every
// design DesignSpec.Validate admits, as core.EachDesign enumerates it.
package modelcheck

import (
	"fmt"

	"github.com/iotbind/iotbind/internal/core"
)

// principal identifies who holds a credential or binding in the abstract
// state.
type principal uint8

// Principals.
const (
	nobody principal = iota
	victim
	adversary
)

// state is the abstract protocol state. It is small and comparable, so
// the reachable set is explored exactly.
type state struct {
	// bound is who the cloud's binding names.
	bound principal
	// sessTokenHolder is who received the current post-binding session
	// token (PostBindingToken designs; nobody otherwise).
	sessTokenHolder principal
	// deviceHasToken reports whether the real device holds the current
	// post-binding session token.
	deviceHasToken bool
	// deviceHasNonce reports whether the real device holds the current
	// data-session nonce (DataRequiresSession designs).
	deviceHasNonce bool
	// stoleData and injectedData are monotone achievement flags.
	stoleData    bool
	injectedData bool
}

// key numbers st below 1<<8: two bits for who is bound, two for who holds
// the session token, then one for each flag.
func (st state) key() uint16 {
	return uint16(st.bound) | uint16(st.sessTokenHolder)<<2 | bit(st.deviceHasToken)<<4 |
		bit(st.deviceHasNonce)<<5 | bit(st.stoleData)<<6 | bit(st.injectedData)<<7
}

// Move is one transition label in a counterexample trace.
type Move string

// The abstract moves.
const (
	MoveForgeRegister  Move = "forge-register"
	MoveForgeHeartbeat Move = "forge-data-heartbeat"
	MoveForgeBind      Move = "forge-bind"
	MoveForgeUnbindT1  Move = "forge-unbind-usertoken"
	MoveForgeUnbindT2  Move = "forge-unbind-devid"
	MoveDeviceRejoin   Move = "device-reregisters"
)

// The abstract moves by the number an edge carries, in the order
// successors tries them, and the table that names them.
const (
	forgeRegister uint8 = iota
	forgeHeartbeat
	forgeBind
	forgeUnbindT1
	forgeUnbindT2
	deviceRejoin
)

var moves = [...]Move{MoveForgeRegister, MoveForgeHeartbeat, MoveForgeBind, MoveForgeUnbindT1, MoveForgeUnbindT2, MoveDeviceRejoin}

func (state) moveName(move uint8) Move { return moves[move] }

// Property is a verified safety property.
type Property int

// The verified properties.
const (
	// PropNoHijack: in no reachable state does the adversary hold the
	// binding while the real device would execute their commands.
	PropNoHijack Property = iota + 1
	// PropBindingPreserved: the victim's binding survives every
	// adversary behaviour (its violation is the A2/A3/A4 family's
	// disconnection effect).
	PropBindingPreserved
	// PropNoDataTheft: the adversary never receives the victim's
	// pending user data.
	PropNoDataTheft
	// PropNoDataInjection: no forged reading is ever attributed to the
	// victim's device while the victim is bound.
	PropNoDataInjection
	// PropVictimCanBind: starting from the factory state, the legitimate
	// user's setup always ends with them bound, whatever the adversary
	// did first (its violation is binding denial-of-service, A2).
	PropVictimCanBind
)

// AllProperties lists the verified properties.
func AllProperties() []Property {
	return []Property{
		PropNoHijack, PropBindingPreserved,
		PropNoDataTheft, PropNoDataInjection,
		PropVictimCanBind,
	}
}

// String implements fmt.Stringer.
func (p Property) String() string {
	switch p {
	case PropNoHijack:
		return "no-hijack"
	case PropBindingPreserved:
		return "binding-preserved"
	case PropNoDataTheft:
		return "no-data-theft"
	case PropNoDataInjection:
		return "no-data-injection"
	case PropVictimCanBind:
		return "victim-can-bind"
	default:
		return fmt.Sprintf("Property(%d)", int(p))
	}
}

// Result is the verdict for one property.
type Result struct {
	// Property is the property checked.
	Property Property
	// Holds reports whether the property holds in every reachable state.
	Holds bool
	// Counterexample is a minimal move sequence reaching a violating
	// state (nil when the property holds).
	Counterexample []Move
	// StatesExplored is the size of the reachable state space.
	StatesExplored int
}

// Check explores the design's abstract state spaces to a fixpoint — from
// the steady control state for the in-operation properties, and from the
// factory state for the setup property — and verifies every property.
func Check(design core.DesignSpec) ([]Result, error) {
	if err := design.Validate(); err != nil {
		return nil, fmt.Errorf("modelcheck: %w", err)
	}
	sys := newSystem(design)
	steady := space[state]{next: sys.successors}
	steady.explore("binding", sys.initial())

	results := make([]Result, 0, len(AllProperties()))
	for _, prop := range AllProperties() {
		if prop == PropVictimCanBind {
			results = append(results, sys.checkSetup())
			continue
		}
		cex := steady.shortest(func(st state) bool { return sys.violates(prop, st) })
		results = append(results, Result{
			Property: prop, Holds: cex == nil,
			Counterexample: cex, StatesExplored: steady.n,
		})
	}
	return results, nil
}

// MoveVictimSetup labels the victim's complete setup flow in setup-time
// counterexamples.
const MoveVictimSetup Move = "victim-setup"

// checkSetup verifies PropVictimCanBind: explore the adversary's moves
// from the factory state, then let the victim run their design's setup
// flow from every reachable state; the property is violated when any of
// those setups leaves the victim unbound.
func (s *system) checkSetup() Result {
	factory := space[state]{next: s.successors}
	factory.explore("binding", state{bound: nobody, deviceHasToken: true, deviceHasNonce: true})
	cex := factory.shortest(func(st state) bool {
		_, lockedOut := s.applySetup(st)
		return lockedOut
	}, MoveVictimSetup)
	return Result{
		Property: PropVictimCanBind, Holds: cex == nil,
		Counterexample: cex, StatesExplored: factory.n,
	}
}

// applySetup runs the victim's setup sequence (core.Setup) abstractly: an
// existing foreign binding is displaced exactly when the design's own
// mechanics displace it (setup-time reset unbind, a session-tied cloud
// evicting on the device's fresh registration in sequences that register
// before binding, or replace-on-bind semantics); otherwise the victim is
// locked out.
func (s *system) applySetup(st state) (state, bool) {
	if st.bound == adversary {
		switch {
		case s.setup.Reset && s.unbindAlone:
			// The setup-time factory reset emits Unbind:DevId.
		case s.d.SessionTiedBinding && s.setup.RegisterFirst:
			// The device's own fresh registration evicts the squatter.
		case s.d.ReplaceOnBind || !s.d.CheckBoundUserOnBind:
			// The victim's bind displaces the squatter.
		default:
			return st, true
		}
	}
	st.bound = victim
	st.deviceHasToken = true
	st.deviceHasNonce = true
	st.sessTokenHolder = nobody
	if s.d.PostBindingToken {
		st.sessTokenHolder = victim
	}
	return st, false
}

// system is the design-specific transition relation. newSystem folds the
// design's capabilities once, because DesignSpec's methods copy the whole
// spec and every state's successors read them.
type system struct {
	d                                                 core.DesignSpec
	setup                                             core.Setup
	canForge, authForgeable, authToken, bindForgeable bool
	windowBlocked, unbindToken, unbindAlone           bool
}

func newSystem(d core.DesignSpec) system {
	auth := d.EffectiveAuth()
	return system{
		d:             d,
		setup:         d.Setup(),
		canForge:      !d.FirmwareOpaque,
		authForgeable: auth == core.AuthDevID,
		authToken:     auth == core.AuthDevToken,
		// An app-sent bind is a plain API call, a device-sent one needs
		// the device's message format, a capability the factory secret.
		bindForgeable: d.Binding == core.BindACLApp || d.Binding == core.BindACLDevice && !d.FirmwareOpaque,
		// Co-location defences refuse a remote bind: any setup window has
		// long closed in the steady state.
		windowBlocked: d.BindButtonWindow || d.SourceIPCheck,
		unbindToken:   d.SupportsUnbind(core.UnbindDevIDUserToken),
		unbindAlone:   d.SupportsUnbind(core.UnbindDevIDAlone),
	}
}

// initial is the steady control state: victim bound, every credential in
// place. Unused credential dimensions are normalized so equal behaviours
// collapse to equal states.
func (s *system) initial() state {
	st := state{
		bound:          victim,
		deviceHasToken: true,
		deviceHasNonce: true,
	}
	if s.d.PostBindingToken {
		st.sessTokenHolder = victim
	}
	return st
}

// successors returns the moves enabled in st.
func (s *system) successors(st state) (out edges[state]) {
	// Adversary: forged registration (a device message).
	if s.canForge && s.authForgeable {
		to := st
		if s.d.SessionTiedBinding && st.bound != nobody {
			s.revokeBinding(&to)
		}
		if s.d.DataRequiresSession {
			// The registration rotates the data-session nonce; the new
			// nonce answers to the adversary's connection, and the
			// proof it would need requires the factory secret the
			// adversary lacks — but the real device's nonce is now
			// stale.
			to.deviceHasNonce = false
		}
		out.add(forgeRegister, to)
	}

	// Adversary: forged data-bearing heartbeat.
	if s.canForge && s.authForgeable && !s.d.DataRequiresSession {
		gated := s.d.PostBindingToken && st.bound != nobody && st.sessTokenHolder != adversary
		if !gated {
			to := st
			if st.bound == victim {
				to.stoleData = true
				to.injectedData = true
			}
			out.add(forgeHeartbeat, to)
		}
	}

	// Adversary: forged bind.
	if s.bindForgeable && !s.windowBlocked {
		replace := s.d.ReplaceOnBind || !s.d.CheckBoundUserOnBind
		if st.bound == nobody || (st.bound != adversary && replace) {
			to := st
			s.revokeBinding(&to)
			to.bound = adversary
			if s.d.PostBindingToken {
				to.sessTokenHolder = adversary
				to.deviceHasToken = false // rotated; only the binder got it
			}
			out.add(forgeBind, to)
		}
	}

	// Adversary: forged Type 1 unbind with their own token. It succeeds
	// against the victim's binding when the bound-user check is absent,
	// and trivially against their own binding.
	if s.unbindToken && st.bound != nobody {
		if !s.d.CheckBoundUserOnUnbind || st.bound == adversary {
			to := st
			s.revokeBinding(&to)
			out.add(forgeUnbindT1, to)
		}
	}

	// Adversary: forged Type 2 unbind (a device message with no
	// authorization at all).
	if s.unbindAlone && s.canForge && st.bound != nobody {
		to := st
		s.revokeBinding(&to)
		out.add(forgeUnbindT2, to)
	}

	// Environment: the real device reconnects and resumes its session,
	// refreshing its data-session nonce. A resume is not a fresh boot:
	// it does not trigger the session-tied reset handling — that is what
	// distinguishes the real firmware's reconnect from the adversary's
	// forged registration.
	{
		to := st
		to.deviceHasNonce = true
		out.add(deviceRejoin, to)
	}

	return out
}

// revokeBinding clears the binding and retires its session token, exactly
// as the cloud does.
func (s *system) revokeBinding(st *state) {
	st.bound = nobody
	st.sessTokenHolder = nobody
}

// deviceObeysAdversary reports whether, in st, commands issued under the
// adversary's binding reach and run on the real device.
func (s *system) deviceObeysAdversary(st state) bool {
	if st.bound != adversary {
		return false
	}
	// Dynamic device tokens: the device's session belongs to the account
	// that configured it; the cloud refuses to relay for a foreign
	// binding.
	if s.authToken {
		return false
	}
	// Post-binding tokens: both the controller and the device must hold
	// the current token.
	if s.d.PostBindingToken && (st.sessTokenHolder != adversary || !st.deviceHasToken) {
		return false
	}
	// Data-session designs: the device fetches commands in-session.
	if s.d.DataRequiresSession && !st.deviceHasNonce {
		return false
	}
	return true
}

// violates decides whether st violates prop.
func (s *system) violates(prop Property, st state) bool {
	switch prop {
	case PropNoHijack:
		return s.deviceObeysAdversary(st)
	case PropBindingPreserved:
		return st.bound != victim
	case PropNoDataTheft:
		return st.stoleData
	case PropNoDataInjection:
		return st.injectedData
	default:
		return false
	}
}
