package testbed

import (
	"reflect"
	"runtime"
	"testing"

	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/vendors"
)

// TestTable3MatchesPaper is the headline reproduction: the full attack
// suite, launched live against each of the ten emulated vendor clouds,
// must reproduce the paper's Table III cell for cell.
func TestTable3MatchesPaper(t *testing.T) {
	for _, p := range vendors.Profiles() {
		p := p
		t.Run(p.Vendor, func(t *testing.T) {
			vr, err := EvaluateVendor(p)
			if err != nil {
				t.Fatalf("evaluate: %v", err)
			}
			if !MatchesPaper(vr.Row, p.Paper) {
				t.Errorf("measured row does not match the paper:\n  measured:  A1=%v A2=%v A3=%v A4=%v\n  published: A1=%v A2=%v A3=%v A4=%v",
					vr.Row.A1, vr.Row.A2, vr.Row.A3, vr.Row.A4,
					p.Paper.A1, p.Paper.A2, p.Paper.A3, p.Paper.A4)
				for _, r := range vr.Results {
					t.Logf("  %-5v %-4v %s", r.Variant, r.Outcome, r.Detail)
				}
			}
		})
	}
}

// TestSecureDesignResistsAllAttacks checks the paper's Section IV
// assessment: the capability-based reference design defeats every attack
// class.
func TestSecureDesignResistsAllAttacks(t *testing.T) {
	for _, p := range []vendors.Profile{vendors.SecureReference(), vendors.RecommendedPractice()} {
		p := p
		t.Run(p.Design.Name, func(t *testing.T) {
			results, err := EvaluateAll(p.Design)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range results {
				if r.Outcome.Succeeded() {
					t.Errorf("%v succeeded against %s: %s", r.Variant, p.Design.Name, r.Detail)
				}
			}
		})
	}
}

// TestWorstCaseDesignIsBroken checks that the strawman combining every
// flawed choice is broken in every attack class.
func TestWorstCaseDesignIsBroken(t *testing.T) {
	results, err := EvaluateAll(vendors.WorstCase().Design)
	if err != nil {
		t.Fatal(err)
	}
	byClass := make(map[core.AttackClass]bool)
	for _, r := range results {
		if r.Outcome.Succeeded() {
			byClass[r.Variant.Class()] = true
		}
	}
	for _, class := range []core.AttackClass{
		core.A1DataInjectionStealing,
		core.A3DeviceUnbinding,
		core.A4DeviceHijacking,
	} {
		if !byClass[class] {
			t.Errorf("no %v variant succeeded against the worst-case design", class)
			for _, r := range results {
				t.Logf("  %-5v %-4v %s", r.Variant, r.Outcome, r.Detail)
			}
		}
	}
	// A2 specifically fails on the worst case because replace-on-bind
	// means occupation cannot stick — the same quirk that protects
	// device #3.
	for _, r := range results {
		if r.Variant == core.VariantA2 && r.Outcome.Succeeded() {
			t.Error("A2 succeeded despite replace-on-bind semantics")
		}
	}
}

// TestVendorProfilesAreValid checks every shipped profile validates and
// builds a working ID generator.
func TestVendorProfilesAreValid(t *testing.T) {
	all := append(vendors.Profiles(), vendors.SecureReference(), vendors.RecommendedPractice(), vendors.WorstCase())
	for _, p := range all {
		if err := p.Design.Validate(); err != nil {
			t.Errorf("%s: design invalid: %v", p.Design.Name, err)
		}
		gen, err := p.IDs.Generator()
		if err != nil {
			t.Errorf("%s: ID generator: %v", p.Design.Name, err)
			continue
		}
		id, err := gen.Generate(1)
		if err != nil || id == "" {
			t.Errorf("%s: Generate(1) = %q, %v", p.Design.Name, id, err)
		}
	}
	if len(vendors.Profiles()) != 10 {
		t.Errorf("Profiles() has %d rows, want 10", len(vendors.Profiles()))
	}
}

// TestVendorSetupFlowsWork checks the legitimate setup path succeeds for
// every vendor design — no false positives from a broken baseline.
func TestVendorSetupFlowsWork(t *testing.T) {
	all := append(vendors.Profiles(), vendors.SecureReference(), vendors.RecommendedPractice(), vendors.WorstCase())
	for _, p := range all {
		p := p
		t.Run(p.Design.Name, func(t *testing.T) {
			tb, err := New(p.Design)
			if err != nil {
				t.Fatal(err)
			}
			if err := tb.SetupVictim(); err != nil {
				t.Fatalf("setup: %v", err)
			}
			if !tb.VictimHasControl() {
				t.Error("victim has no control after setup")
			}
		})
	}
}

func TestByVendor(t *testing.T) {
	p, ok := vendors.ByVendor("TP-LINK")
	if !ok || p.Number != 8 {
		t.Errorf("ByVendor(TP-LINK) = %+v, %v", p.Number, ok)
	}
	if _, ok := vendors.ByVendor("Nonesuch"); ok {
		t.Error("ByVendor(Nonesuch) found a profile")
	}
}

// TestEvaluateVendorsMatchesSequential: the concurrent Table III
// regeneration reproduces the sequential sweep row for row and cell for
// cell. At least four workers each reset their own testbed, so a testbed
// two workers shared would show here (and under -race).
func TestEvaluateVendorsMatchesSequential(t *testing.T) {
	profiles := vendors.Profiles()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	got, err := EvaluateVendors(profiles)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(profiles) {
		t.Fatalf("EvaluateVendors returned %d rows, want %d", len(got), len(profiles))
	}
	for i, p := range profiles {
		want, err := EvaluateVendor(p)
		if err != nil {
			t.Fatal(err)
		}
		if got[i].Profile.Vendor != p.Vendor {
			t.Errorf("row %d is vendor %s, want %s (order must match input)", i, got[i].Profile.Vendor, p.Vendor)
		}
		if !MatchesPaper(got[i].Row, want.Row) {
			t.Errorf("vendor %s: concurrent row %+v != sequential row %+v", p.Vendor, got[i].Row, want.Row)
		}
		if !reflect.DeepEqual(got[i].Results, want.Results) {
			t.Errorf("vendor %s: concurrent cells %+v != sequential cells %+v", p.Vendor, got[i].Results, want.Results)
		}
	}
}
