package analysis_test

import (
	"testing"

	"github.com/iotbind/iotbind/internal/analysis"
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/modelcheck"
	"github.com/iotbind/iotbind/internal/vendors"
)

// TestPredictAllAllocations pins the analyzer's part of one attack_matrix
// operation — PredictAll on the ten vendors and three references — at one
// findings slice a design: each row's query over the model allocates
// nothing, and every reason is a constant.
func TestPredictAllAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	profiles := append(vendors.Profiles(), vendors.SecureReference(), vendors.RecommendedPractice(), vendors.WorstCase())
	n := testing.AllocsPerRun(20, func() {
		for _, p := range profiles {
			analysis.PredictAll(p.Design)
		}
	})
	t.Logf("PredictAll on %d designs: %v allocations", len(profiles), n)
	if n != 13 {
		t.Errorf("%v allocations, want 13: one findings slice a design", n)
	}
}

// TestPredictDelegationAllocations pins the A6 part of one attack_matrix
// operation at PredictDelegation's findings slice: each A6 row's query
// over the delegation sub-model allocates nothing.
func TestPredictDelegationAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	for flags := 0; flags < 8; flags++ {
		d := withDelegation(vendors.WorstCase().Design, flags)
		if n := testing.AllocsPerRun(20, func() { analysis.PredictDelegation(d) }); n != 1 {
			t.Errorf("flags %03b: PredictDelegation makes %v allocations, want 1: its findings slice", flags, n)
		}
		for _, v := range core.DelegationVariants() {
			if n := testing.AllocsPerRun(20, func() { modelcheck.Verdict(d, v) }); n != 0 {
				t.Errorf("flags %03b: Verdict on %v makes %v allocations, want 0", flags, v, n)
			}
		}
	}
}
