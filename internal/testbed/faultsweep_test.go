package testbed

import (
	"testing"

	"github.com/iotbind/iotbind/internal/core"
)

func lossDesign() core.DesignSpec {
	return core.DesignSpec{
		Name:                   "loss-sweep",
		DeviceAuth:             core.AuthDevToken,
		Binding:                core.BindACLApp,
		UnbindForms:            []core.UnbindForm{core.UnbindDevIDUserToken},
		CheckBoundUserOnBind:   true,
		CheckBoundUserOnUnbind: true,
		PostBindingToken:       true,
	}
}

// TestBindingUnderLossLifecycleSurvives is the acceptance test for the
// fault-and-recovery layer: with a quarter of all deliveries failing
// (half dropped before the cloud, half after it mutated state), the full
// bind life cycle still completes through retries, and the final shadow
// state — position, bound user, and number of bind transitions — is
// identical to a fault-free run's. The at-least-once redeliveries that
// the idempotency log absorbed are counted to prove that path ran.
func TestBindingUnderLossLifecycleSurvives(t *testing.T) {
	cfg := lossConfig{
		Design:      lossDesign(),
		Rates:       []float64{0.25},
		Trials:      8,
		Seed:        42,
		MaxAttempts: 8,
	}
	points, err := runBindingUnderLoss(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 {
		t.Fatalf("points = %d, want 1", len(points))
	}
	pt := points[0]
	if pt.Succeeded != pt.Trials {
		t.Errorf("succeeded %d/%d life cycles at 25%% loss — retries did not recover, or recovery changed final state",
			pt.Succeeded, pt.Trials)
	}
	if pt.InjectedFailures == 0 {
		t.Error("0 injected failures at 25% — the plane never fired, the run proves nothing")
	}
	if pt.Deduplicated == 0 {
		t.Error("0 deduplicated redeliveries — the fail-after + idempotency path was never exercised")
	}
}

// TestBindingUnderLossDeterministic proves the whole sweep is a pure
// function of its config: same seed, same points.
func TestBindingUnderLossDeterministic(t *testing.T) {
	cfg := lossConfig{
		Design: lossDesign(),
		Rates:  []float64{0.1, 0.3},
		Trials: 4,
		Seed:   7,
	}
	a, err := runBindingUnderLoss(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runBindingUnderLoss(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("point %d diverged across identical runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestBindingUnderLossRequiresUnbindForm proves the sweep rejects designs
// whose life cycle it cannot complete, instead of failing obscurely.
func TestBindingUnderLossRequiresUnbindForm(t *testing.T) {
	d := lossDesign()
	d.UnbindForms = []core.UnbindForm{core.UnbindDevIDAlone}
	if _, err := runBindingUnderLoss(lossConfig{Design: d, Rates: []float64{0.1}, Trials: 1, Seed: 1}); err == nil {
		t.Fatal("sweep accepted a design without the owner-unbind form")
	}
}
