package analysis_test

import (
	"math/rand"
	"testing"

	"github.com/iotbind/iotbind/internal/analysis"
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/testbed"
	"github.com/iotbind/iotbind/internal/vendors"
)

// TestPredictionsMatchPaperRows checks the analyzer against the published
// Table III: for every vendor, the rule-based prediction must collapse to
// the paper's row.
func TestPredictionsMatchPaperRows(t *testing.T) {
	for _, p := range vendors.Profiles() {
		p := p
		t.Run(p.Vendor, func(t *testing.T) {
			findings := analysis.PredictAll(p.Design)
			results := make([]testbed.Result, 0, len(findings))
			for _, f := range findings {
				results = append(results, testbed.Result{Variant: f.Variant, Outcome: f.Outcome, Detail: f.Reason})
			}
			row := testbed.CollapseRow(results)
			if !testbed.MatchesPaper(row, p.Paper) {
				t.Errorf("prediction does not match the paper:\n  predicted: A1=%v A2=%v A3=%v A4=%v\n  published: A1=%v A2=%v A3=%v A4=%v",
					row.A1, row.A2, row.A3, row.A4,
					p.Paper.A1, p.Paper.A2, p.Paper.A3, p.Paper.A4)
				for _, f := range findings {
					t.Logf("  %-5v %-4v %s", f.Variant, f.Outcome, f.Reason)
				}
			}
		})
	}
}

// TestPredictionsMatchEmulationOnVendors checks analyzer-vs-testbed
// agreement per variant (stronger than row-level) on every shipped
// profile.
func TestPredictionsMatchEmulationOnVendors(t *testing.T) {
	all := append(vendors.Profiles(), vendors.SecureReference(), vendors.RecommendedPractice(), vendors.WorstCase())
	for _, p := range all {
		p := p
		t.Run(p.Design.Name, func(t *testing.T) {
			assertAgreement(t, p.Design)
		})
	}
}

// TestPredictionsMatchEmulationOnRandomDesigns is the central
// cross-validation property: for randomly generated (but buildable)
// designs, the independently implemented rule-based analyzer and the live
// emulation must classify every attack variant identically.
func TestPredictionsMatchEmulationOnRandomDesigns(t *testing.T) {
	if testing.Short() {
		t.Skip("random design sweep is slow")
	}
	rng := rand.New(rand.NewSource(20260706))
	for i := 0; i < 150; i++ {
		d := randomDesign(rng, i)
		if !assertAgreement(t, d) {
			t.Logf("design %d: %+v", i, d)
			if t.Failed() {
				return // one counterexample is enough to debug
			}
		}
	}
}

func assertAgreement(t *testing.T, d core.DesignSpec) bool {
	t.Helper()
	results, err := testbed.EvaluateAll(d)
	if err != nil {
		t.Errorf("design %q: emulation error: %v", d.Name, err)
		return false
	}
	ok := true
	for _, measured := range results {
		predicted := analysis.Predict(d, measured.Variant)
		if predicted.Outcome != measured.Outcome {
			t.Errorf("design %q variant %v: predicted %v (%s) but measured %v (%s)",
				d.Name, measured.Variant, predicted.Outcome, predicted.Reason, measured.Outcome, measured.Detail)
			ok = false
		}
	}
	return ok
}

// randomDesign generates a valid, buildable design spec: every combination
// of authentication mode, binding mechanism, unbind forms and policy flags
// that the emulated setup flows support.
func randomDesign(rng *rand.Rand, i int) core.DesignSpec {
	auths := []core.DeviceAuthMode{core.AuthDevToken, core.AuthDevID, core.AuthPublicKey}
	binds := []core.BindMechanism{core.BindACLApp, core.BindACLDevice, core.BindCapability}

	d := core.DesignSpec{
		Name:                   "random",
		DeviceAuth:             auths[rng.Intn(len(auths))],
		Binding:                binds[rng.Intn(len(binds))],
		CheckBoundUserOnBind:   rng.Intn(2) == 0,
		CheckBoundUserOnUnbind: rng.Intn(2) == 0,
		ReplaceOnBind:          rng.Intn(2) == 0,
		OnlineBeforeBind:       rng.Intn(2) == 0,
		SessionTiedBinding:     rng.Intn(2) == 0,
		DataRequiresSession:    rng.Intn(2) == 0,
		ResetUnbindsOnSetup:    rng.Intn(2) == 0,
		FirmwareOpaque:         rng.Intn(3) == 0,
	}
	d.Name = d.Name + "-" + string(rune('a'+i%26))

	if rng.Intn(2) == 0 {
		d.UnbindForms = append(d.UnbindForms, core.UnbindDevIDUserToken)
	}
	if rng.Intn(2) == 0 {
		d.UnbindForms = append(d.UnbindForms, core.UnbindDevIDAlone)
	}

	// Occasionally model an unconfirmed product.
	if rng.Intn(6) == 0 {
		d.AssumedAuth = d.DeviceAuth
		d.DeviceAuth = core.AuthUnknown
		d.FirmwareOpaque = true
	}

	d.BindButtonWindow = rng.Intn(4) == 0
	d.SourceIPCheck = rng.Intn(4) == 0

	// Constraints that keep the legitimate setup flow buildable (the
	// combinations real products use): post-binding tokens pair with
	// app-initiated binding.
	if d.Binding == core.BindACLApp {
		d.PostBindingToken = rng.Intn(2) == 0

		// A cloud that treats registrations as resets (or whose setup
		// resets the device) is incompatible with bind-before-connect
		// flows: the device's own first registration would revoke the
		// binding the app just created. Real products with these
		// behaviours connect first (or bind from the device).
		if d.SessionTiedBinding || d.ResetUnbindsOnSetup {
			d.OnlineBeforeBind = true
		}
	}

	// Delegation policy flags, drawn last so the sweep over the binding
	// dimensions is unchanged by their addition.
	d.DelegationScopeAttenuation = rng.Intn(2) == 0
	d.DelegationCascadeRevoke = rng.Intn(2) == 0
	d.DelegationCheckAtUse = rng.Intn(2) == 0
	return d
}
