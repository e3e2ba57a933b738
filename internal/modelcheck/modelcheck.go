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
// every reachable state, not a bounded prefix — and decides the safety
// property of each of core's five goals, producing a minimal
// counterexample trace for each violation.
//
// Moves and goals are core's (core.Move, core.Goal), the vocabulary the
// live rig and the discovery searcher speak too: a counterexample is a
// move sequence testbed.Stage runs as it stands, and the goal's live probe
// (testbed.Reached) says whether it landed.
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

// Property and the five Prop names are core's goals under the names the
// benchmark's attack matrix reads; ROADMAP item 2(b) deletes them with the
// rest of what only bench/ keeps.
type Property = core.Goal

// The properties, as the benchmark names them.
const (
	PropNoHijack         = core.GoalHijack
	PropBindingPreserved = core.GoalDisconnect
	PropNoDataTheft      = core.GoalStealData
	PropNoDataInjection  = core.GoalInjectData
	PropVictimCanBind    = core.GoalOccupy
)

// Result is the verdict for one property.
type Result struct {
	// Property is the goal whose safety property was checked.
	Property core.Goal
	// Holds reports whether the property holds in every reachable state.
	Holds bool
	// Counterexample is a minimal move sequence reaching a violating
	// state (nil when the property holds).
	Counterexample []core.Move
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

	results := make([]Result, 0, len(core.AllGoals()))
	for _, prop := range core.AllGoals() {
		if prop == core.GoalOccupy {
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

// checkSetup verifies victim-can-bind (core.GoalOccupy): explore the
// adversary's moves from the factory state, then let the victim run their
// design's setup flow from every reachable state; the property is
// violated when any of those setups leaves the victim unbound.
func (s *system) checkSetup() Result {
	factory := space[state]{next: s.successors}
	factory.explore("binding", state{bound: nobody, deviceHasToken: true, deviceHasNonce: true})
	cex := factory.shortest(func(st state) bool {
		_, lockedOut := s.applySetup(st)
		return lockedOut
	}, core.MoveVictimSetup)
	return Result{
		Property: core.GoalOccupy, Holds: cex == nil,
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
		out.add(core.MoveForgeRegister, to)
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
			out.add(core.MoveForgeDataHeartbeat, to)
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
			out.add(core.MoveForgeBind, to)
		}
	}

	// Adversary: forged Type 1 unbind with their own token. It succeeds
	// against the victim's binding when the bound-user check is absent,
	// and trivially against their own binding.
	if s.unbindToken && st.bound != nobody {
		if !s.d.CheckBoundUserOnUnbind || st.bound == adversary {
			to := st
			s.revokeBinding(&to)
			out.add(core.MoveForgeUnbindUserToken, to)
		}
	}

	// Adversary: forged Type 2 unbind (a device message with no
	// authorization at all).
	if s.unbindAlone && s.canForge && st.bound != nobody {
		to := st
		s.revokeBinding(&to)
		out.add(core.MoveForgeUnbindDevID, to)
	}

	// Environment: the real device reconnects and resumes its session,
	// refreshing its data-session nonce. A resume is not a fresh boot:
	// it does not trigger the session-tied reset handling — that is what
	// distinguishes the real firmware's reconnect from the adversary's
	// forged registration.
	{
		to := st
		to.deviceHasNonce = true
		out.add(core.MoveDeviceReregisters, to)
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

// violates decides whether st violates the safety property of goal.
func (s *system) violates(goal core.Goal, st state) bool {
	switch goal {
	case core.GoalHijack:
		return s.deviceObeysAdversary(st)
	case core.GoalDisconnect:
		return st.bound != victim
	case core.GoalStealData:
		return st.stoleData
	case core.GoalInjectData:
		return st.injectedData
	default:
		return false
	}
}
