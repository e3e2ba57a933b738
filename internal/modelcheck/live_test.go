package modelcheck

import (
	"testing"

	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/testbed"
	"github.com/iotbind/iotbind/internal/vendors"
)

// TestLiveRigTakesEveryMove: every move the binding model's successors
// emit, from the steady or the factory state of any design of the
// lattice, is one the live rig can perform —
// staged into the steady control state of each vendor and reference
// design, it ends in an accepted move or the cloud's refusal, never a
// failure of the rig.
func TestLiveRigTakesEveryMove(t *testing.T) {
	emitted := make(map[core.Move]bool)
	core.EachDesign(func(d core.DesignSpec) bool {
		sys := newSystem(d)
		for _, start := range [...]state{sys.initial(), {bound: nobody, deviceHasToken: true, deviceHasNonce: true}} {
			sp := space[state]{next: sys.successors}
			sp.explore("binding", start)
			for _, st := range sp.order[:sp.n] {
				es := sys.successors(st)
				for _, e := range es.list[:es.n] {
					emitted[e.move] = true
				}
			}
		}
		return true
	})
	if len(emitted) != 6 {
		t.Errorf("the binding model emits %d moves, want 6: %v", len(emitted), emitted)
	}
	profiles := append(vendors.Profiles(), vendors.SecureReference(), vendors.RecommendedPractice(), vendors.WorstCase())
	tb := new(testbed.Testbed)
	for m := range emitted {
		for _, p := range profiles {
			if _, _, _, err := tb.Stage(p.Design, testbed.ScenarioSteadyControl, []core.Move{m}, false); err != nil {
				t.Errorf("%s: %v: %v", p.Design.Name, m, err)
			}
		}
	}
}
