package modelcheck_test

import (
	"slices"
	"testing"

	"github.com/iotbind/iotbind/internal/analysis"
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/modelcheck"
	"github.com/iotbind/iotbind/internal/vendors"
)

func resultFor(t *testing.T, results []modelcheck.Result, p core.Goal) modelcheck.Result {
	t.Helper()
	for _, r := range results {
		if r.Property == p {
			return r
		}
	}
	t.Fatalf("no result for %v", p)
	return modelcheck.Result{}
}

// TestPropertyStrings: Check reports one named verdict per goal, and no
// two properties share a name.
func TestPropertyStrings(t *testing.T) {
	results, err := modelcheck.Check(vendors.SecureReference().Design)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(core.AllGoals()) {
		t.Errorf("Check returned %d verdicts, want %d", len(results), len(core.AllGoals()))
	}
	seen := make(map[string]bool)
	for _, r := range results {
		name := r.Property.String()
		if name == "" {
			t.Errorf("property %d unnamed", int(r.Property))
		}
		if seen[name] {
			t.Errorf("property name %q reported twice", name)
		}
		seen[name] = true
	}
}

// TestSecureDesignsVerify: the reference designs satisfy all five
// properties in every reachable state.
func TestSecureDesignsVerify(t *testing.T) {
	for _, p := range []vendors.Profile{vendors.SecureReference(), vendors.RecommendedPractice()} {
		p := p
		t.Run(p.Design.Name, func(t *testing.T) {
			results, err := modelcheck.Check(p.Design)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range results {
				if !r.Holds {
					t.Errorf("%v violated: %v", r.Property, r.Counterexample)
				}
				if r.StatesExplored == 0 {
					t.Errorf("%v explored no states", r.Property)
				}
			}
		})
	}
}

// TestTPLinkCounterexampleIsTheA4x3Chain: the minimal no-hijack
// counterexample on device #8 is exactly the paper's two-step chain.
func TestTPLinkCounterexampleIsTheA4x3Chain(t *testing.T) {
	p, ok := vendors.ByVendor("TP-LINK")
	if !ok {
		t.Fatal("no TP-LINK profile")
	}
	results, err := modelcheck.Check(p.Design)
	if err != nil {
		t.Fatal(err)
	}
	hijack := resultFor(t, results, core.GoalHijack)
	if hijack.Holds {
		t.Fatal("no-hijack holds on TP-LINK, want violation")
	}
	want := []core.Move{core.MoveForgeUnbindDevID, core.MoveForgeBind}
	if len(hijack.Counterexample) != len(want) {
		t.Fatalf("counterexample = %v, want %v", hijack.Counterexample, want)
	}
	for i := range want {
		if hijack.Counterexample[i] != want[i] {
			t.Fatalf("counterexample = %v, want %v", hijack.Counterexample, want)
		}
	}

	// Binding preservation falls with one move.
	bp := resultFor(t, results, core.GoalDisconnect)
	if bp.Holds || len(bp.Counterexample) != 1 {
		t.Errorf("binding-preserved = %+v, want one-move violation", bp)
	}
	// Data stays safe: the in-session protection holds formally.
	if theft := resultFor(t, results, core.GoalStealData); !theft.Holds {
		t.Errorf("no-data-theft violated: %v", theft.Counterexample)
	}
}

// TestDLinkDataProperties: device #10's static-ID design loses the data
// properties in one move.
func TestDLinkDataProperties(t *testing.T) {
	p, ok := vendors.ByVendor("D-LINK")
	if !ok {
		t.Fatal("no D-LINK profile")
	}
	results, err := modelcheck.Check(p.Design)
	if err != nil {
		t.Fatal(err)
	}
	for _, prop := range []core.Goal{core.GoalStealData, core.GoalInjectData} {
		r := resultFor(t, results, prop)
		if r.Holds {
			t.Errorf("%v holds on D-LINK, want violation", prop)
			continue
		}
		if len(r.Counterexample) != 1 || r.Counterexample[0] != core.MoveForgeDataHeartbeat {
			t.Errorf("%v counterexample = %v, want [forge-data-heartbeat]", prop, r.Counterexample)
		}
	}
	// No hijack path exists on D-LINK.
	if r := resultFor(t, results, core.GoalHijack); !r.Holds {
		t.Errorf("no-hijack violated on D-LINK: %v", r.Counterexample)
	}
	// But the setup property falls to the one-move squat (A2).
	setup := resultFor(t, results, core.GoalOccupy)
	if setup.Holds {
		t.Fatal("victim-can-bind holds on D-LINK, want the A2 violation")
	}
	want := []core.Move{core.MoveForgeBind, core.MoveVictimSetup}
	if len(setup.Counterexample) != len(want) ||
		setup.Counterexample[0] != want[0] || setup.Counterexample[1] != want[1] {
		t.Errorf("A2 counterexample = %v, want %v", setup.Counterexample, want)
	}
}

// TestCheckerAgreesWithAnalyzerOnVendors: the formal verdicts must match
// the analyzer's per-row predictions, property by property, on every
// shipped profile.
func TestCheckerAgreesWithAnalyzerOnVendors(t *testing.T) {
	all := append(vendors.Profiles(), vendors.SecureReference(), vendors.RecommendedPractice(), vendors.WorstCase())
	for _, p := range all {
		p := p
		t.Run(p.Design.Name, func(t *testing.T) {
			for _, r := range disagreements(t, p.Design) {
				t.Errorf("%v holds=%v, but the analyzer implies the opposite (cex %v)", r.Property, r.Holds, r.Counterexample)
			}
		})
	}
}

// TestCheckerAgreesWithAnalyzerOnLattice extends the agreement to every
// design of the lattice with the delegation flags unset, 73 728 of them.
// Check searches every sequence of moves, the analyzer answers each row's
// own; they part on exactly 48 designs, where no-hijack falls to a forged
// registration that drops a session-tied binding (A3-4) followed by a
// forged bind on the emptied device (A4-1) — a chain no single row
// launches. 24 of them are data-session designs, where the device must
// re-register before it obeys.
func TestCheckerAgreesWithAnalyzerOnLattice(t *testing.T) {
	chain := []core.Move{core.MoveForgeRegister, core.MoveForgeBind}
	resumed := []core.Move{core.MoveForgeRegister, core.MoveForgeBind, core.MoveDeviceReregisters}
	designs, plain, dataSession := 0, 0, 0
	core.EachDesign(func(d core.DesignSpec) bool {
		if d.DelegationScopeAttenuation || d.DelegationCascadeRevoke || d.DelegationCheckAtUse {
			return true
		}
		designs++
		for _, r := range disagreements(t, d) {
			switch {
			case r.Property == core.GoalHijack && d.SessionTiedBinding && !d.DataRequiresSession &&
				slices.Equal(r.Counterexample, chain):
				plain++
			case r.Property == core.GoalHijack && d.SessionTiedBinding && d.DataRequiresSession &&
				slices.Equal(r.Counterexample, resumed):
				dataSession++
			default:
				t.Fatalf("%+v: %v holds=%v, but the analyzer implies the opposite (cex %v)", d, r.Property, r.Holds, r.Counterexample)
			}
		}
		return true
	})
	if designs != 73728 || plain != 24 || dataSession != 24 {
		t.Errorf("%d designs, %d + %d disagreeing; want 73 728 and 24 + 24", designs, plain, dataSession)
	}
}

// disagreements maps the analyzer's per-variant predictions onto the
// checker's property verdicts and returns the verdicts that differ.
func disagreements(t *testing.T, d core.DesignSpec) []modelcheck.Result {
	t.Helper()
	results, err := modelcheck.Check(d)
	if err != nil {
		t.Fatalf("design %q: %v", d.Name, err)
	}
	pred := make(map[core.AttackVariant]bool)
	for _, f := range analysis.PredictAll(d) {
		pred[f.Variant] = f.Outcome == core.OutcomeSucceeded
	}

	// The steady-state hijack paths are A4-1 and A4-3 (A4-2 needs the
	// setup window, outside the steady initial state).
	hijack := pred[core.VariantA4x1] || pred[core.VariantA4x3]
	violated := map[core.Goal]bool{
		core.GoalHijack: hijack,
		// Binding loss: any unbinding variant or a hijack (which also
		// displaces the binding).
		core.GoalDisconnect: pred[core.VariantA3x1] || pred[core.VariantA3x2] ||
			pred[core.VariantA3x3] || pred[core.VariantA3x4] || hijack,
		core.GoalStealData:  pred[core.VariantA1],
		core.GoalInjectData: pred[core.VariantA1],
		core.GoalOccupy:     pred[core.VariantA2],
	}
	var out []modelcheck.Result
	for _, r := range results {
		if r.Holds == violated[r.Property] {
			out = append(out, r)
		}
	}
	return out
}

func TestCheckRejectsInvalidDesign(t *testing.T) {
	if _, err := modelcheck.Check(core.DesignSpec{}); err == nil {
		t.Error("invalid design accepted")
	}
}
