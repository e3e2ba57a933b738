package analysis

import (
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/modelcheck"
)

// DelegationFinding is one predicted A6 attack outcome with its
// reasoning — the delegation rows that extend Table II once a design
// supports sub-user bindings.
type DelegationFinding struct {
	// Attack is the A6 row.
	Attack modelcheck.DelegationAttack
	// Outcome is the predicted result in Table III vocabulary.
	Outcome core.Outcome
	// Reason explains the prediction in one sentence.
	Reason string
}

// PredictDelegation evaluates the A6 rows against a design from policy
// rules alone, independently of both the lattice implementation and the
// delegation sub-model in modelcheck; the test suite proves the routes
// agree on every profile and on randomly generated designs.
func PredictDelegation(d core.DesignSpec) []DelegationFinding {
	return []DelegationFinding{
		predictResidualControl(d),
		predictEscalation(d),
		predictRevocationRace(d),
	}
}

// predictResidualControl: evicted-guest residual control. An orphaned sub-grant
// (no cascade) is inert while the cloud re-walks the chain at use time;
// it becomes live authority only when the token fast path skips the
// walk.
func predictResidualControl(d core.DesignSpec) DelegationFinding {
	f := DelegationFinding{Attack: modelcheck.AttackResidualControl}
	switch {
	case d.DelegationCascadeRevoke:
		f.Outcome = core.OutcomeFailed
		f.Reason = "cascade revocation severs the evicted guest's subtree and retires its minted tokens atomically"
	case d.DelegationCheckAtUse:
		f.Outcome = core.OutcomeFailed
		f.Reason = "the orphaned sub-grant survives but every use re-walks the chain, which is broken at the evicted guest"
	default:
		f.Outcome = core.OutcomeSucceeded
		f.Reason = "no cascade leaves the sub-guest's grant and token alive, and no use-time walk notices the severed chain"
	}
	return f
}

// predictEscalation: re-delegation privilege escalation. Grant-time
// attenuation is the only guard — the use-time chain walk checks link
// liveness, not scope monotonicity, so an over-wide derived grant
// authorizes even under strict checking.
func predictEscalation(d core.DesignSpec) DelegationFinding {
	f := DelegationFinding{Attack: modelcheck.AttackEscalation}
	if d.DelegationScopeAttenuation {
		f.Outcome = core.OutcomeFailed
		f.Reason = "attenuation rejects any derived grant whose scopes, depth or lifetime exceed the grantor's"
	} else {
		f.Outcome = core.OutcomeSucceeded
		f.Reason = "a read-only guest with the share scope mints a control-scoped sub-grant the chain walk accepts"
	}
	return f
}

// predictRevocationRace: revocation-race window. With use-time checking, the
// lattice walk happens under the shadow lock that revocation takes, so
// a control racing a revocation loses deterministically; without it, a
// token that passed verification before the revocation still lands.
func predictRevocationRace(d core.DesignSpec) DelegationFinding {
	f := DelegationFinding{Attack: modelcheck.AttackRevocationRace}
	if d.DelegationCheckAtUse {
		f.Outcome = core.OutcomeFailed
		f.Reason = "use-time chain verification is atomic with revocation under the shadow lock; the racer observes the post-revocation lattice"
	} else {
		f.Outcome = core.OutcomeSucceeded
		f.Reason = "a delegation token verified before the revocation authorizes the control that lands after it"
	}
	return f
}
