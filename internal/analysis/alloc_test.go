package analysis_test

import (
	"testing"

	"github.com/iotbind/iotbind/internal/analysis"
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
