// Delegation sub-model: an exhaustive exploration of the delegation
// lattice's abstract behaviour under one design, deciding the A6 attack
// rows the same way the main checker decides A1–A4 — every reachable
// state, minimal counterexample traces, no bounded prefixes.
//
// The abstraction tracks one owner, one guest (A) and one sub-guest (B)
// over a single device: the owner's grant to A, A's derived grant to B,
// the delegation tokens minted for each, and an in-flight control that
// has passed token verification but not yet landed — the revocation
// race's window. Scopes are the concrete bitmask (control/read/share),
// so scope escalation is modelled exactly, not by proxy.
package modelcheck

import (
	"fmt"

	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/delegation"
)

// DelegationResult is the verdict for one A6 row.
type DelegationResult struct {
	// Attack is the row checked.
	Attack core.AttackVariant
	// Succeeds reports whether some reachable state reaches the row's
	// goals.
	Succeeds bool
	// Trace is a minimal move sequence reaching such a state (nil when
	// the attack is blocked).
	Trace []core.Move
	// StatesExplored is the size of the reachable state space.
	StatesExplored int
}

// dstate is the abstract delegation state. Scope fields use the concrete
// bitmask; zero means no grant.
type dstate struct {
	// aScope and bScope are the owner→guest and guest→sub-guest grants.
	aScope, bScope delegation.Scope
	// aTok and bTok report live minted delegation tokens.
	aTok, bTok bool
	// aRevoked records that the owner evicted the guest (distinguishes
	// the post-revocation aScope==0 from the initial one).
	aRevoked bool
	// inflight is a guest control past token verification, not landed.
	inflight bool
	// Monotone achievement flags.
	residual, escalated, stale bool
}

// key numbers st below 1<<13: three bits for each scope, then one for
// each flag.
func (st dstate) key() uint16 {
	return uint16(st.aScope) | uint16(st.bScope)<<3 | bit(st.aTok)<<6 | bit(st.bTok)<<7 |
		bit(st.aRevoked)<<8 | bit(st.inflight)<<9 | bit(st.residual)<<10 | bit(st.escalated)<<11 | bit(st.stale)<<12
}

// dsystem is the design-specific delegation transition relation: the
// design's three delegation flags, the only fields the sub-model reads.
type dsystem struct{ attenuate, cascade, checkAtUse bool }

func newDSystem(d core.DesignSpec) *dsystem {
	return &dsystem{d.DelegationScopeAttenuation, d.DelegationCascadeRevoke, d.DelegationCheckAtUse}
}

// successors returns the moves enabled in st: each delegation move core
// numbers, from owner-delegates-guest-control to
// subguest-controls-with-usertoken, that step does not refuse.
func (s *dsystem) successors(st dstate) (out edges[dstate]) {
	for m := core.MoveOwnerDelegateFull; m <= core.MoveSubguestControlUser; m++ {
		if to := st; s.step(m, &to) == "" {
			out.add(m, to)
		}
	}
	return out
}

// step applies the delegation move m to st in place, or leaves st as it
// was and says why the move does not go through. Each refusal is written
// once, at the guard that decides it, and a failed A6 row (Verdict) gives
// it as its reason.
func (s *dsystem) step(m core.Move, st *dstate) string {
	switch m {
	case core.MoveOwnerDelegateFull, core.MoveOwnerDelegateReadOnly:
		// The owner grants the guest (replacing any existing grant, which
		// severs the derived subtree and retires its token, exactly as the
		// lattice does). Minting accompanies every grant.
		st.aScope = delegation.ScopeRead | delegation.ScopeShare
		if m == core.MoveOwnerDelegateFull {
			st.aScope |= delegation.ScopeControl
		}
		st.aTok, st.aRevoked = true, false
		st.bScope, st.bTok = 0, false

	case core.MoveGuestRedelegateCtl, core.MoveGuestRedelegateRead:
		// The guest re-delegates to the sub-guest, with a minted token.
		scope := delegation.ScopeRead
		if m == core.MoveGuestRedelegateCtl {
			scope = delegation.ScopeControl
		}
		switch {
		case !st.aScope.Has(delegation.ScopeShare):
			return "the guest holds no share scope to re-delegate"
		case s.attenuate && !st.aScope.Has(scope):
			return "attenuation rejects any derived grant whose scopes, depth or lifetime exceed the grantor's"
		}
		st.bScope, st.bTok = scope, true

	case core.MoveOwnerRevokeGuest:
		// The guest's grant and token always go; the derived subtree only
		// under cascade revocation — without it, the sub-guest's grant and
		// minted token survive their parent.
		if st.aScope == 0 {
			return "the guest holds no grant to revoke"
		}
		st.aScope, st.aTok, st.aRevoked = 0, false, true
		if s.cascade {
			st.bScope, st.bTok = 0, false
		}

	case core.MoveGuestControlBegin:
		// A guest control split at the verification boundary: the token
		// passes issuer verification here, authority is decided when the
		// request lands. A revocation between the two is the race.
		if !st.aTok || st.inflight {
			return "the guest holds no delegation token, or its control is in flight"
		}
		st.inflight = true

	case core.MoveGuestControlLand:
		// Only a use-time walk sees a revocation since the token was
		// verified; inflight with no grant left means the guest was
		// revoked.
		switch {
		case !st.inflight:
			return "no guest control is in flight"
		case s.checkAtUse && st.aScope == 0:
			return "use-time chain verification is atomic with revocation under the shadow lock; the racer observes the post-revocation lattice"
		case s.checkAtUse && !st.aScope.Has(delegation.ScopeControl):
			return "the guest's grant carries no control scope"
		}
		st.inflight = false
		// The race is A6-3; A6-1 is reserved for durable residual
		// authority (the orphaned subtree), not the one-shot window.
		st.stale = st.stale || st.aRevoked

	case core.MoveSubguestControlToken:
		// The sub-guest's minted delegation token skips the chain walk
		// unless use-time checking is on.
		switch {
		case !st.bTok && st.aRevoked && s.cascade:
			return "cascade revocation severs the evicted guest's subtree and retires its minted tokens atomically"
		case !st.bTok:
			return "the sub-guest holds no delegation token"
		case s.checkAtUse:
			if refused := chainRefused(*st); refused != "" {
				return refused
			}
		}
		markSubControl(st)

	case core.MoveSubguestControlUser:
		// The sub-guest's own user token always walks the lattice (the
		// use-time flag gates only the token fast path), so pure scope
		// escalation lands even under strict checking.
		if st.bScope == 0 {
			return "the sub-guest holds no grant"
		}
		if refused := chainRefused(*st); refused != "" {
			return refused
		}
		markSubControl(st)

	default:
		return "no move of the delegation model"
	}
	return ""
}

// chainRefused mirrors Lattice.Authorize's walk for the sub-guest's
// control: its own grant must carry the scope and the link to the owner
// must still exist. A sub-grant left without that link is orphaned: its
// grantor was revoked. (Expiry is not modelled; the race window subsumes
// the stale-credential dimension.)
func chainRefused(st dstate) string {
	switch {
	case st.aScope == 0:
		return "the orphaned sub-grant survives but every use re-walks the chain, which is broken at the evicted guest"
	case !st.bScope.Has(delegation.ScopeControl):
		return "the sub-guest's grant carries no control scope"
	}
	return ""
}

// markSubControl records what a landed sub-guest control achieves.
func markSubControl(st *dstate) {
	if st.aRevoked {
		st.residual = true
	}
	if st.aScope != 0 && !st.aScope.Has(delegation.ScopeControl) && st.bScope.Has(delegation.ScopeControl) {
		st.escalated = true
	}
}

// rowMissed says why st does not reach every goal of the A6 row v, "" when
// it does.
func rowMissed(v core.AttackVariant, st dstate) string {
	for _, g := range v.Goals() {
		reached, why := false, "no goal of the delegation model"
		switch g {
		case core.GoalResidualControl:
			reached, why = st.residual, "no credential derived from the evicted guest commands the device"
		case core.GoalEscalate:
			reached, why = st.escalated, "no grantee exercises a scope its grantor lacks"
		case core.GoalStaleControl:
			reached, why = st.stale, "no control verified before a revocation lands after it"
		}
		if !reached {
			return why
		}
	}
	return ""
}

// verdict is Verdict for an A6 row: from the empty lattice it takes the
// row's moves in order, each one state to one, and the row succeeds when
// the last state reaches the row's goals.
func (s *dsystem) verdict(v core.AttackVariant) (core.Outcome, string) {
	var st dstate
	for _, m := range v.Moves() {
		if refused := s.step(m, &st); refused != "" {
			return core.OutcomeFailed, refused
		}
	}
	if why := rowMissed(v, st); why != "" {
		return core.OutcomeFailed, why
	}
	return core.OutcomeSucceeded, ""
}

// CheckDelegation explores the design's delegation sub-model to a
// fixpoint and decides every A6 row, its goals reached in some reachable
// state or in none. The exploration is exhaustive and the successor
// order is fixed, so the verdicts — and the counterexample traces — are
// deterministic for a given design.
func CheckDelegation(design core.DesignSpec) ([]DelegationResult, error) {
	if err := design.Validate(); err != nil {
		return nil, fmt.Errorf("modelcheck: %w", err)
	}
	sys := newDSystem(design)
	sp := space[dstate]{next: sys.successors}
	sp.explore("delegation", dstate{})

	variants := core.DelegationVariants()
	results := make([]DelegationResult, 0, len(variants))
	for _, v := range variants {
		trace := sp.shortest(func(st dstate) bool { return rowMissed(v, st) == "" })
		results = append(results, DelegationResult{
			Attack: v, Succeeds: trace != nil,
			Trace: trace, StatesExplored: sp.n,
		})
	}
	return results, nil
}
