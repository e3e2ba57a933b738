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

// DelegationAttack identifies one A6 attack row.
type DelegationAttack int

// The delegation attack rows.
const (
	// AttackResidualControl is A6-1: after the owner evicts the guest,
	// some credential derived from the guest's authority still commands
	// the device.
	AttackResidualControl DelegationAttack = iota + 1
	// AttackEscalation is A6-2: a re-delegation chain ends in a grantee
	// exercising a scope its grantor never held.
	AttackEscalation
	// AttackRevocationRace is A6-3: a control that passed credential
	// verification before a revocation lands after it.
	AttackRevocationRace
)

// String implements fmt.Stringer.
func (a DelegationAttack) String() string {
	switch a {
	case AttackResidualControl:
		return "A6-1 evicted-guest-residual-control"
	case AttackEscalation:
		return "A6-2 re-delegation-privilege-escalation"
	case AttackRevocationRace:
		return "A6-3 revocation-race-window"
	default:
		return fmt.Sprintf("DelegationAttack(%d)", int(a))
	}
}

// allDelegationAttacks lists the A6 rows in table order.
func allDelegationAttacks() []DelegationAttack {
	return []DelegationAttack{AttackResidualControl, AttackEscalation, AttackRevocationRace}
}

// DelegationResult is the verdict for one A6 row.
type DelegationResult struct {
	// Attack is the row checked.
	Attack DelegationAttack
	// Succeeds reports whether some reachable state realizes the attack.
	Succeeds bool
	// Trace is a minimal move sequence reaching a realizing state (nil
	// when the attack is blocked).
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

// dsystem is the design-specific delegation transition relation.
type dsystem struct {
	d core.DesignSpec
}

// authorized mirrors Lattice.Authorize for the two-hop abstraction: the
// holder's own grant carries the scope and every link of the chain to
// the owner exists. (Expiry is not modelled; the race window subsumes
// the stale-credential dimension.)
func (s *dsystem) authorizedGuest(st dstate, scope delegation.Scope) bool {
	return st.aScope.Has(scope)
}

func (s *dsystem) authorizedSub(st dstate, scope delegation.Scope) bool {
	return st.bScope.Has(scope) && st.aScope != 0
}

// successors returns the moves enabled in st.
func (s *dsystem) successors(st dstate) (out edges[dstate]) {
	// Owner delegates to the guest (replacing any existing grant —
	// replacement severs the derived subtree, exactly as the lattice
	// does). Minting accompanies every grant.
	grant := func(move core.Move, scope delegation.Scope) {
		to := st
		to.aScope = scope
		to.aTok = true
		to.aRevoked = false
		// Replacement severs B's derived grant and retires its token.
		to.bScope = 0
		to.bTok = false
		out.add(move, to)
	}
	grant(core.MoveOwnerDelegateFull, delegation.ScopeControl|delegation.ScopeRead|delegation.ScopeShare)
	grant(core.MoveOwnerDelegateReadOnly, delegation.ScopeRead|delegation.ScopeShare)

	// Guest re-delegates to the sub-guest. Requires the share scope;
	// under attenuation the derived scopes must be a subset of the
	// guest's own.
	if st.aScope.Has(delegation.ScopeShare) {
		redelegate := func(move core.Move, scope delegation.Scope) {
			if s.d.DelegationScopeAttenuation && !st.aScope.Has(scope) {
				return
			}
			to := st
			to.bScope = scope
			to.bTok = true
			out.add(move, to)
		}
		redelegate(core.MoveGuestRedelegateCtl, delegation.ScopeControl)
		redelegate(core.MoveGuestRedelegateRead, delegation.ScopeRead)
	}

	// Owner revokes the guest. The target's grant and token always go;
	// the derived subtree is severed only under cascade revocation —
	// without it, B's grant and minted token survive their parent.
	if st.aScope != 0 {
		to := st
		to.aScope = 0
		to.aTok = false
		to.aRevoked = true
		if s.d.DelegationCascadeRevoke {
			to.bScope = 0
			to.bTok = false
		}
		out.add(core.MoveOwnerRevokeGuest, to)
	}

	// Guest control, split at the verification boundary: the token
	// passes issuer verification first (begin), authority is decided
	// when the request lands (land). A revocation between the two is
	// the race; DelegationCheckAtUse decides who wins it.
	if st.aTok && !st.inflight {
		to := st
		to.inflight = true
		out.add(core.MoveGuestControlBegin, to)
	}
	if st.inflight {
		to := st
		to.inflight = false
		if !s.d.DelegationCheckAtUse || s.authorizedGuest(st, delegation.ScopeControl) {
			if st.aRevoked {
				// The race realizes A6-3; A6-1 is reserved for durable
				// residual authority (the orphaned subtree), not the
				// one-shot window.
				to.stale = true
			}
			out.add(core.MoveGuestControlLand, to)
		}
	}

	// Sub-guest control with its minted delegation token: skips the
	// chain walk entirely when use-time checking is off.
	if st.bTok {
		if !s.d.DelegationCheckAtUse || s.authorizedSub(st, delegation.ScopeControl) {
			to := st
			s.markSubControl(&to, st)
			out.add(core.MoveSubguestControlToken, to)
		}
	}

	// Sub-guest control with its own user token: always walks the
	// lattice (the use-time flag gates only the token fast path), so it
	// realizes pure scope escalation even under strict checking.
	if st.bScope != 0 {
		if s.authorizedSub(st, delegation.ScopeControl) {
			to := st
			s.markSubControl(&to, st)
			out.add(core.MoveSubguestControlUser, to)
		}
	}

	return out
}

// markSubControl records what a landed sub-guest control achieves in st.
func (s *dsystem) markSubControl(to *dstate, st dstate) {
	if st.aRevoked {
		to.residual = true
	}
	if st.aScope != 0 && !st.aScope.Has(delegation.ScopeControl) && st.bScope.Has(delegation.ScopeControl) {
		to.escalated = true
	}
}

// realizes decides whether st realizes the attack.
func (s *dsystem) realizes(a DelegationAttack, st dstate) bool {
	switch a {
	case AttackResidualControl:
		return st.residual
	case AttackEscalation:
		return st.escalated
	case AttackRevocationRace:
		return st.stale
	default:
		return false
	}
}

// CheckDelegation explores the design's delegation sub-model to a
// fixpoint and decides every A6 row. The exploration is exhaustive and
// the successor order is fixed, so the verdicts — and the
// counterexample traces — are deterministic for a given design.
func CheckDelegation(design core.DesignSpec) ([]DelegationResult, error) {
	if err := design.Validate(); err != nil {
		return nil, fmt.Errorf("modelcheck: %w", err)
	}
	sys := &dsystem{d: design}
	sp := space[dstate]{next: sys.successors}
	sp.explore("delegation", dstate{})

	results := make([]DelegationResult, 0, 3)
	for _, a := range allDelegationAttacks() {
		trace := sp.shortest(func(st dstate) bool { return sys.realizes(a, st) })
		results = append(results, DelegationResult{
			Attack: a, Succeeds: trace != nil,
			Trace: trace, StatesExplored: sp.n,
		})
	}
	return results, nil
}
