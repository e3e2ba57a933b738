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
// Verdict asks the same model one Table II row at a time, as a path
// query along the row's moves (core's tableII); the analyzer's
// predictions are its answers. So the model and the concrete emulation
// are the two independent formalizations of the binding semantics here,
// and the test suite holds them to each other on every vendor profile and
// on the whole design lattice core.EachDesign enumerates.
package modelcheck

import (
	"cmp"
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
		cex := steady.shortest(func(st state) bool { return sys.missed(prop, st) == "" })
		results = append(results, Result{
			Property: prop, Holds: cex == nil,
			Counterexample: cex, StatesExplored: steady.n,
		})
	}
	return results, nil
}

// Verdict answers one Table II row on the design with a path query over
// the model, the row's own small Check. From the row's launch state
// (core.AttackVariant.LaunchState) — the steady state, the factory state,
// or the setup window where the design's setup opens one — it takes the
// row's moves in order, forge-any-unbind being each unbind form the
// design exposes, and lets the device re-register after each. Then the
// victim finishes the scenario: the factory state's setup (applySetup),
// the window's bind (ownerBinds). The row succeeds when some state reaches
// all its goals and not its Unless. Otherwise it fails (✗), with the
// refusal or the shortfall the model names as reason — unconfirmed (O)
// where a step was stopped by a device message the adversary could not
// craft. reason is "" on success. Verdict allocates nothing.
func Verdict(d core.DesignSpec, v core.AttackVariant) (outcome core.Outcome, reason string) {
	s := newSystem(d)
	at := states{n: 1, list: [8]state{s.initial()}}
	switch v.LaunchState() {
	case core.StateControl:
	case core.StateOnline:
		if !s.setup.OnlineUnbound() {
			return core.OutcomeFailed, "setup leaves no online-unbound window: the binding exists before the device connects"
		}
		fallthrough
	case core.StateInitial:
		at.list[0] = unboxed
	default:
		return core.OutcomeNotApplicable, "no Table II row"
	}
	for _, m := range v.Moves() {
		next, refused, unknown := s.step(&at, m)
		switch {
		case next.n == 0 && unknown:
			return core.OutcomeUnconfirmed, refused
		case next.n == 0:
			return core.OutcomeFailed, refused
		}
		at = next
	}
	for _, st := range at.list[:at.n] {
		why := ""
		switch v.LaunchState() {
		case core.StateInitial:
			st, why = s.applySetup(st)
		case core.StateOnline:
			st, why = s.ownerBinds(st)
		}
		missed := ""
		for _, g := range v.Goals() {
			if missed = s.missed(g, st); missed != "" {
				break
			}
		}
		if missed == "" && v.Unless() != 0 && s.missed(v.Unless(), st) == "" {
			missed = "the replacement binding hands the adversary control: the episode is a hijack"
		}
		if missed == "" {
			return core.OutcomeSucceeded, ""
		}
		reason = cmp.Or(why, missed)
	}
	return core.OutcomeFailed, reason
}

// step applies m to every state in at — for forge-any-unbind, each unbind
// form the design exposes — and the device's resume after it. When no
// state goes on, refused is why, unknown when some form was out of the
// adversary's reach, and then its refusal is the one given.
func (s *system) step(at *states, m core.Move) (next states, refused string, unknown bool) {
	forms, n := [2]core.Move{m}, 1
	if m == core.MoveForgeAnyUnbind {
		n = 0
		if s.unbindAlone {
			forms[n], n = core.MoveForgeUnbindDevID, n+1
		}
		if s.unbindToken {
			forms[n], n = core.MoveForgeUnbindUserToken, n+1
		}
		if n == 0 {
			return next, "the cloud accepts no unbind message", false
		}
	}
	for _, st := range at.list[:at.n] {
		for _, f := range forms[:n] {
			to, why, unk := s.forge(f, st)
			if why == "" {
				next.add(to)
				next.add(resume(to))
				continue
			}
			if refused == "" || unk && !unknown {
				refused = why
			}
			unknown = unknown || unk
		}
	}
	return next, refused, unknown
}

// states is a set of model states a row's launch may be in, held in
// place.
type states struct {
	n    int
	list [8]state
}

func (ss *states) add(st state) {
	for _, have := range ss.list[:ss.n] {
		if have == st {
			return
		}
	}
	ss.list[ss.n] = st
	ss.n++
}

// checkSetup verifies victim-can-bind (core.GoalOccupy): explore the
// adversary's moves from the factory state, then let the victim run their
// design's setup flow from every reachable state; the property is
// violated when any of those setups leaves the victim unbound.
func (s *system) checkSetup() Result {
	factory := space[state]{next: s.successors}
	factory.explore("binding", unboxed)
	cex := factory.shortest(func(st state) bool {
		after, _ := s.applySetup(st)
		return s.missed(core.GoalOccupy, after) == ""
	}, core.MoveVictimSetup)
	return Result{
		Property: core.GoalOccupy, Holds: cex == nil,
		Counterexample: cex, StatesExplored: factory.n,
	}
}

// unboxed is the factory state: nobody bound, the device's credentials in
// place. The online-unbound setup window is the same abstract state.
var unboxed = state{bound: nobody, deviceHasToken: true, deviceHasNonce: true}

// applySetup runs the victim's setup sequence (core.Setup) abstractly and
// returns the state it leaves, with what displaced a foreign binding on
// the way: the setup-time reset's Unbind:DevId, a session-tied cloud
// evicting on the device's fresh registration in sequences that register
// before binding, or the victim's own bind (ownerBinds). Where nothing
// does, the victim is locked out and st comes back as it was.
func (s *system) applySetup(st state) (state, string) {
	evicted := ""
	switch {
	case st.bound != adversary:
	case s.setup.Reset && s.unbindAlone:
		evicted = "normal setup resets the device, which revokes the squatting binding"
	case s.d.SessionTiedBinding && s.setup.RegisterFirst:
		evicted = "the victim device's own registration evicts the squatting binding during setup"
	}
	if evicted != "" {
		s.revokeBinding(&st)
	}
	st, displaced := s.ownerBinds(st)
	return st, cmp.Or(evicted, displaced)
}

// ownerBinds is the victim's bind, the last step of their setup: it binds
// the victim with fresh credentials, over the adversary's binding only
// where the cloud replaces on bind — saying so — and otherwise leaves st
// as it was.
func (s *system) ownerBinds(st state) (state, string) {
	displaced := ""
	if st.bound == adversary {
		if !s.replace {
			return st, ""
		}
		displaced = "the owner's bind displaces the adversary's binding"
	}
	st.bound = victim
	st.deviceHasToken = true
	st.deviceHasNonce = true
	st.sessTokenHolder = nobody
	if s.d.PostBindingToken {
		st.sessTokenHolder = victim
	}
	return st, displaced
}

// system is the design-specific transition relation. newSystem folds the
// design's capabilities once, because DesignSpec's methods copy the whole
// spec and every state's successors read them.
type system struct {
	d                                  core.DesignSpec
	setup                              core.Setup
	canForge, authForgeable, authToken bool
	windowBlocked, replace             bool
	unbindToken, unbindAlone           bool
}

func newSystem(d core.DesignSpec) system {
	auth := d.EffectiveAuth()
	return system{
		d:             d,
		setup:         d.Setup(),
		canForge:      !d.FirmwareOpaque,
		authForgeable: auth == core.AuthDevID,
		authToken:     auth == core.AuthDevToken,
		windowBlocked: d.BindButtonWindow || d.SourceIPCheck,
		replace:       d.ReplaceOnBind || !d.CheckBoundUserOnBind,
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

// successors returns the moves enabled in st: each forgery that goes
// through — core numbers the five from forge-register to
// forge-unbind-devid — then the environment's resume.
func (s *system) successors(st state) (out edges[state]) {
	for m := core.MoveForgeRegister; m <= core.MoveForgeUnbindDevID; m++ {
		if to, refused, _ := s.forge(m, st); refused == "" {
			out.add(m, to)
		}
	}
	out.add(core.MoveDeviceReregisters, resume(st))
	return out
}

// noBinding refuses an unbind of a device bound to nobody.
const noBinding = "there is no binding to revoke"

// forge applies the adversary's forgery m to st. refused says why it does
// not go through, "" when it does: the cloud's refusal, or — unknown — the
// adversary's own, who cannot craft a device message the firmware did not
// give away. The adversary's knowledge gates the attempt itself: without
// the device protocol there is nothing to send, whether or not the cloud
// would accept the form. Each refusal is written once, at the guard that
// decides it, and a failed Table II row (Verdict) gives it as its reason.
func (s *system) forge(m core.Move, st state) (to state, refused string, unknown bool) {
	switch m {
	case core.MoveForgeRegister:
		if refused, unknown = s.statusRefused(); refused != "" {
			return st, refused, unknown
		}
		if s.d.SessionTiedBinding && st.bound != nobody {
			s.revokeBinding(&st)
		}
		if s.d.DataRequiresSession {
			// The registration rotates the data-session nonce; the new
			// nonce answers to the adversary's connection, and the proof
			// it would need requires the factory secret the adversary
			// lacks — but the real device's nonce is now stale.
			st.deviceHasNonce = false
		}

	case core.MoveForgeDataHeartbeat:
		switch refused, unknown = s.statusRefused(); {
		case refused != "":
			return st, refused, unknown
		case s.d.PostBindingToken && st.bound != nobody && st.sessTokenHolder != adversary:
			return st, "device messages must carry the post-binding session token", false
		case s.d.DataRequiresSession:
			return st, "data-bearing messages require the factory-secret session proof", false
		}
		if st.bound == victim {
			st.stoleData = true
			st.injectedData = true
		}

	case core.MoveForgeBind:
		// An app-sent bind is a plain API call, a device-sent one needs
		// the device's message format, a capability the factory secret.
		switch {
		case s.d.Binding != core.BindACLApp && s.d.Binding != core.BindACLDevice:
			return st, "capability binding: a bind needs the factory-secret proof", false
		case s.d.Binding == core.BindACLDevice && !s.canForge:
			return st, "device-initiated bind message could not be reconstructed", true
		case s.windowBlocked:
			// The button is pressed, and the bind sent, from the
			// victim's home, never from afar.
			return st, "bind-time co-location defence rejects remote binds", false
		case st.bound == adversary:
			return st, "the adversary holds the binding already", false
		case st.bound == victim && !s.replace:
			return st, "the cloud rejects binds for devices bound to another user", false
		}
		s.revokeBinding(&st)
		st.bound = adversary
		if s.d.PostBindingToken {
			st.sessTokenHolder = adversary
			st.deviceHasToken = false // rotated; only the binder got it
		}

	case core.MoveForgeUnbindUserToken:
		// The Type 1 unbind with the adversary's own token: against
		// their own binding, an ordinary unbind.
		switch {
		case !s.unbindToken:
			return st, "the cloud does not accept Unbind:(DevId, UserToken)", false
		case st.bound == nobody:
			return st, noBinding, false
		case st.bound == victim && s.d.CheckBoundUserOnUnbind:
			return st, "the cloud verifies the unbinding user is the bound user", false
		}
		s.revokeBinding(&st)

	case core.MoveForgeUnbindDevID:
		// The Type 2 unbind: a device message with no authorization.
		switch {
		case !s.canForge:
			return st, "the device-sent unbind message could not be reconstructed", true
		case !s.unbindAlone:
			return st, "the cloud does not accept Unbind:DevId", false
		case st.bound == nobody:
			return st, noBinding, false
		}
		s.revokeBinding(&st)

	default:
		return st, "no forgery of the binding model", false
	}
	return st, "", false
}

// statusRefused says why a forged status message does not pass as the
// device's own: the adversary cannot craft it, or the device
// authenticates with more than its ID.
func (s *system) statusRefused() (string, bool) {
	switch {
	case !s.canForge:
		return "device messages could not be reconstructed from the firmware", true
	case s.authToken:
		return "forged status rejected: device authenticates with DevToken", false
	case !s.authForgeable:
		return "forged status rejected: device authenticates with PublicKey", false
	}
	return "", false
}

// resume is the environment's move: the real device reconnects and
// resumes its session, refreshing its data-session nonce. A resume is not
// a fresh boot: it does not trigger the session-tied reset handling —
// that is what distinguishes the real firmware's reconnect from the
// adversary's forged registration.
func resume(st state) state {
	st.deviceHasNonce = true
	return st
}

// revokeBinding clears the binding and retires its session token, exactly
// as the cloud does.
func (s *system) revokeBinding(st *state) {
	st.bound = nobody
	st.sessTokenHolder = nobody
}

// missed says why st does not reach goal — does not violate the goal's
// safety property — and is "" when it does. Occupation is judged on what
// the victim's setup left (applySetup).
func (s *system) missed(goal core.Goal, st state) string {
	switch goal {
	case core.GoalHijack:
		// Whether commands issued under the adversary's binding reach and
		// run on the real device.
		switch {
		case st.bound != adversary:
			return "the adversary holds no binding"
		case s.authToken:
			// Dynamic device tokens: the device's session belongs to the
			// account that configured it; the cloud refuses to relay for
			// a foreign binding.
			return "token-based sessions deny the foreign binding any control"
		case s.d.PostBindingToken && (st.sessTokenHolder != adversary || !st.deviceHasToken):
			// Both the controller and the device must hold the current
			// post-binding token.
			return "the post-binding token went only to the binder, so the real device ignores the foreign binding"
		case s.d.DataRequiresSession && !st.deviceHasNonce:
			// Data-session designs: the device fetches commands in-session.
			return "the real device's data session is stale, so it fetches no commands"
		}
	case core.GoalDisconnect:
		if st.bound == victim {
			return "the cloud keeps the victim's binding through the forged messages"
		}
	case core.GoalStealData:
		if !st.stoleData {
			return "no private data reached the adversary"
		}
	case core.GoalInjectData:
		if !st.injectedData {
			return "no forged reading reached the bound victim"
		}
	case core.GoalOccupy:
		if st.bound == victim {
			return "the victim's setup binds the device"
		}
	default:
		return "no goal of the binding model"
	}
	return ""
}
