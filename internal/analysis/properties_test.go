package analysis_test

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/iotbind/iotbind/internal/analysis"
	"github.com/iotbind/iotbind/internal/core"
)

// DesignSpec values for testing/quick: the generator produces valid,
// buildable specs via the shared randomDesign constraints.
type quickDesign struct{ d core.DesignSpec }

// Generate implements quick.Generator.
func (quickDesign) Generate(rng *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(quickDesign{d: randomDesign(rng, rng.Int())})
}

// TestPredictIsDeterministic: the analyzer is a pure function of the
// design.
func TestPredictIsDeterministic(t *testing.T) {
	f := func(q quickDesign) bool {
		a := analysis.PredictAll(q.d)
		b := analysis.PredictAll(q.d)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPredictIgnoresName: the design's display name carries no semantics.
func TestPredictIgnoresName(t *testing.T) {
	f := func(q quickDesign, name string) bool {
		if name == "" {
			name = "x"
		}
		renamed := q.d
		renamed.Name = name
		a := analysis.PredictAll(q.d)
		b := analysis.PredictAll(renamed)
		for i := range a {
			if a[i].Outcome != b[i].Outcome {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPredictIsTotal: every variant gets a definite outcome with a reason
// for every valid design.
func TestPredictIsTotal(t *testing.T) {
	f := func(q quickDesign) bool {
		for _, finding := range analysis.PredictAll(q.d) {
			switch finding.Outcome {
			case core.OutcomeSucceeded, core.OutcomeFailed, core.OutcomeUnconfirmed:
			default:
				return false
			}
			if finding.Reason == "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestHardeningMonotonic: applying the full secure reference design's
// choices (public-key auth + capability binding + both checks) to any
// design removes every predicted attack — the analyzer respects the
// paper's "best practice" claim universally, not just on the shipped
// profiles.
func TestHardeningMonotonic(t *testing.T) {
	f := func(q quickDesign) bool {
		d := q.d
		d.DeviceAuth = core.AuthPublicKey
		d.AssumedAuth = 0
		d.Binding = core.BindCapability
		d.PostBindingToken = false
		d.CheckBoundUserOnBind = true
		d.CheckBoundUserOnUnbind = true
		d.ReplaceOnBind = false
		d.UnbindForms = []core.UnbindForm{core.UnbindDevIDUserToken}
		if err := d.Validate(); err != nil {
			return false
		}
		for _, finding := range analysis.PredictAll(d) {
			if finding.Outcome == core.OutcomeSucceeded {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
