package analysis_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/iotbind/iotbind/internal/analysis"
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/modelcheck"
	"github.com/iotbind/iotbind/internal/vendors"
)

// withDelegation returns d under the delegation setting flags: bit 0
// attenuation, bit 1 cascade revocation, bit 2 use-time checking.
func withDelegation(d core.DesignSpec, flags int) core.DesignSpec {
	d.DelegationScopeAttenuation = flags&1 != 0
	d.DelegationCascadeRevoke = flags&2 != 0
	d.DelegationCheckAtUse = flags&4 != 0
	return d
}

// TestDelegationSecureBaselineBlocksA6: the capability baseline (and the
// recommended practice) enable all three delegation guards, so every A6
// row is blocked; the zero-value permissive posture leaves all three
// open.
func TestDelegationSecureBaselineBlocksA6(t *testing.T) {
	for _, p := range []vendors.Profile{vendors.SecureReference(), vendors.RecommendedPractice()} {
		for _, f := range analysis.PredictDelegation(p.Design) {
			if f.Outcome.Succeeded() {
				t.Errorf("%s: %v succeeds on the secure baseline: %s", p.Design.Name, f.Attack, f.Reason)
			}
		}
	}

	permissive := vendors.WorstCase().Design // zero-value delegation flags
	for _, f := range analysis.PredictDelegation(permissive) {
		if !f.Outcome.Succeeded() {
			t.Errorf("%v blocked on the permissive posture: %s", f.Attack, f.Reason)
		}
	}
}

// TestDelegationPredictionsMatchModel holds the row query to the
// exhaustive sub-model on all eight delegation settings, the only fields
// the sub-model reads: a row succeeds exactly when CheckDelegation finds
// its goals reachable, and then no longer than the row's own moves.
func TestDelegationPredictionsMatchModel(t *testing.T) {
	for flags := 0; flags < 8; flags++ {
		d := withDelegation(vendors.WorstCase().Design, flags)
		results, err := modelcheck.CheckDelegation(d)
		if err != nil {
			t.Fatalf("flags %03b: %v", flags, err)
		}
		variants := core.DelegationVariants()
		if len(results) != len(variants) {
			t.Fatalf("flags %03b: %d model results for %d A6 rows", flags, len(results), len(variants))
		}
		for i, v := range variants {
			f, r := analysis.Predict(d, v), results[i]
			switch {
			case r.Attack != v:
				t.Fatalf("flags %03b: row %d is %v in the model, %v in core", flags, i, r.Attack, v)
			case f.Outcome.Succeeded() != r.Succeeds:
				t.Errorf("flags %03b: %v: row query says %v (%s), model says %v (%v)", flags, v, f.Outcome, f.Reason, r.Succeeds, r.Trace)
			case r.Succeeds && len(r.Trace) > len(v.Moves()):
				t.Errorf("flags %03b: %v: minimal trace %v is longer than the row's moves %v", flags, v, r.Trace, v.Moves())
			}
		}
	}
}

// TestDelegationModelDeterministic: two explorations of the same design
// produce identical verdicts and identical minimal traces.
func TestDelegationModelDeterministic(t *testing.T) {
	for flags := 0; flags < 8; flags++ {
		d := withDelegation(vendors.WorstCase().Design, flags)
		a, err := modelcheck.CheckDelegation(d)
		if err != nil {
			t.Fatal(err)
		}
		b, err := modelcheck.CheckDelegation(d)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("flags %03b: non-deterministic delegation check:\n%v\n%v", flags, a, b)
		}
	}
}

// TestDelegationFlagsChangeOnlyA6 holds the delegation flags factored
// from the rest of a design on the live lattice (the delegation flags and
// FirmwareOpaque unset, 36 864 designs): on each design all eight
// delegation settings give the same nine Table II findings, and under
// each setting every design gives the same A6 findings. Under the race
// detector it runs on a seeded tenth of the designs.
func TestDelegationFlagsChangeOnlyA6(t *testing.T) {
	var a6 [8][]analysis.DelegationFinding
	for flags := range a6 {
		a6[flags] = analysis.PredictDelegation(withDelegation(vendors.WorstCase().Design, flags))
	}
	rng := rand.New(rand.NewSource(42))
	designs := 0
	core.EachDesign(func(d core.DesignSpec) bool {
		if d.DelegationScopeAttenuation || d.DelegationCascadeRevoke || d.DelegationCheckAtUse || d.FirmwareOpaque {
			return true
		}
		designs++
		if raceEnabled && rng.Intn(10) != 0 {
			return true
		}
		base := analysis.PredictAll(d)
		for flags := range a6 {
			dd := withDelegation(d, flags)
			if flags > 0 {
				if got := analysis.PredictAll(dd); !slices.Equal(got, base) {
					t.Fatalf("%+v: delegation setting %03b moves the Table II findings:\n got %v\nwant %v", d, flags, got, base)
				}
			}
			if got := analysis.PredictDelegation(dd); !slices.Equal(got, a6[flags]) {
				t.Fatalf("%+v: delegation setting %03b gives A6 findings\n%v\nnot the worst case's\n%v", d, flags, got, a6[flags])
			}
		}
		return true
	})
	if designs != 36864 {
		t.Errorf("%d designs, want 36 864", designs)
	}
}
