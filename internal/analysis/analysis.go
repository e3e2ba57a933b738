// Package analysis is the attack-surface analyzer: given a remote-binding
// design description, it predicts — without running any emulation — which
// of the paper's attacks (Table II) succeed against it, and derives the
// taxonomy's state-transition structure from the device-shadow state
// machine.
//
// A prediction is the model checker's answer to the row's query
// (modelcheck.Verdict): each row is written once, in core's tableII, and
// a failed row's reason is the model's. The testbed package launches the
// same A1–A4 rows against live emulated clouds, and the test suite holds
// the two independent oracles, the model and the live cloud, to each
// other. The A6 delegation rows are the same row query over the
// delegation sub-model, held to that sub-model's exhaustive search
// (modelcheck.CheckDelegation): row query vs exhaustive sub-model.
package analysis

import (
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/modelcheck"
)

// Finding is one predicted attack outcome with its reasoning.
type Finding struct {
	// Variant is the attack procedure.
	Variant core.AttackVariant
	// Outcome is the predicted result in Table III vocabulary.
	Outcome core.Outcome
	// Reason explains the prediction in one sentence.
	Reason string
}

// won is each row's Reason when it succeeds, indexed by variant.
var won = [...]string{
	core.VariantA1:   "static device ID authenticates forged status messages; data flows both ways",
	core.VariantA2:   "first-come binding with a leaked device ID locks the legitimate user out",
	core.VariantA3x1: "Unbind:DevId carries no authorization at all",
	core.VariantA3x2: "any valid user token revokes any binding: the bound-user check is missing",
	core.VariantA3x3: "the forged bind replaces the user's binding; tokens deny the attacker control, leaving pure disconnection",
	core.VariantA3x4: "a forged registration is treated as a device reset and revokes the binding",
	core.VariantA4x1: "the cloud manipulates the existing binding without checks; the attacker takes over",
	core.VariantA4x2: "the attacker binds first during the setup window and controls the device",
	core.VariantA4x3: "forged unbind opens the online state; a forged bind then hijacks the device",
	core.VariantA6x1: "no cascade leaves the sub-guest's grant and token alive, and no use-time walk notices the severed chain",
	core.VariantA6x2: "a read-only guest with the share scope mints a control-scoped sub-grant the chain walk accepts",
	core.VariantA6x3: "a delegation token verified before the revocation authorizes the control that lands after it",
}

// Predict evaluates one attack variant, a Table II row or an A6 row,
// against a design.
func Predict(d core.DesignSpec, v core.AttackVariant) Finding {
	if v < 1 || int(v) >= len(won) {
		return Finding{Variant: v, Outcome: core.OutcomeNotApplicable, Reason: "unknown variant"}
	}
	f := Finding{Variant: v}
	if f.Outcome, f.Reason = modelcheck.Verdict(d, v); f.Outcome == core.OutcomeSucceeded {
		f.Reason = won[v]
	}
	return f
}

// PredictAll evaluates every Table II variant against a design, in the
// table's order.
func PredictAll(d core.DesignSpec) []Finding {
	variants := core.AllAttackVariants()
	findings := make([]Finding, 0, len(variants))
	for _, v := range variants {
		findings = append(findings, Predict(d, v))
	}
	return findings
}

// PredictMany is PredictAll over each design, in the input order.
func PredictMany(designs []core.DesignSpec) [][]Finding {
	out := make([][]Finding, len(designs))
	for i, d := range designs {
		out[i] = PredictAll(d)
	}
	return out
}

// DelegationFinding is an A6 finding under the names the benchmark's
// attack matrix reads; ROADMAP item 2(b) deletes it with the rest of what
// only bench/ keeps.
type DelegationFinding struct {
	Attack  core.AttackVariant
	Outcome core.Outcome
	Reason  string
}

// PredictDelegation is Predict over the A6 rows, for the benchmark's
// attack matrix; ROADMAP item 2(b) deletes it.
func PredictDelegation(d core.DesignSpec) []DelegationFinding {
	findings := make([]DelegationFinding, 0, 3)
	for _, v := range core.DelegationVariants() {
		f := Predict(d, v)
		findings = append(findings, DelegationFinding{f.Variant, f.Outcome, f.Reason})
	}
	return findings
}
