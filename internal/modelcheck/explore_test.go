package modelcheck

import (
	"strings"
	"testing"

	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/vendors"
)

// TestCheckAllocations pins the model checker's part of one attack_matrix
// operation — a Check of each of the ten vendors and three references, a
// CheckDelegation of each reference — at its result slices and
// counterexample traces (214 allocations before states were packed), and
// an exploration of either model at none.
func TestCheckAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	var designs, postures []core.DesignSpec
	for _, p := range vendors.Profiles() {
		designs = append(designs, p.Design)
	}
	for _, p := range []vendors.Profile{vendors.SecureReference(), vendors.RecommendedPractice(), vendors.WorstCase()} {
		designs = append(designs, p.Design)
		postures = append(postures, p.Design)
	}
	n := testing.AllocsPerRun(20, func() {
		for _, d := range designs {
			if _, err := Check(d); err != nil {
				t.Fatal(err)
			}
		}
		for _, d := range postures {
			if _, err := CheckDelegation(d); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("%d Checks and %d CheckDelegations: %v allocations", len(designs), len(postures), n)
	if n != 38 {
		t.Errorf("%v allocations, want 38: 16 result slices and 22 traces", n)
	}

	sys, dsys := newSystem(vendors.WorstCase().Design), &dsystem{d: vendors.WorstCase().Design}
	if n := testing.AllocsPerRun(20, func() {
		steady := space[state]{next: sys.successors}
		steady.explore("binding", sys.initial())
		deleg := space[dstate]{next: dsys.successors}
		deleg.explore("delegation", dstate{})
	}); n != 0 {
		t.Errorf("exploring both models: %v allocations, want 0", n)
	}
}

// TestCheckDelegationAllocations: an exploration keeps nothing on the
// heap; only the results and one trace per succeeding row are allocated
// (27 / 12 / 12 before states were packed, 1 731 on the permissive
// posture before that).
func TestCheckDelegationAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	for _, c := range []struct {
		p    vendors.Profile
		want float64
	}{
		{vendors.WorstCase(), 4},       // 145 states: the results and three traces
		{vendors.SecureReference(), 1}, // 13 states, no trace
		{vendors.RecommendedPractice(), 1},
	} {
		n := testing.AllocsPerRun(20, func() {
			if _, err := CheckDelegation(c.p.Design); err != nil {
				t.Fatal(err)
			}
		})
		if n != c.want {
			t.Errorf("%s: %v allocations, want %v", c.p.Design.Name, n, c.want)
		}
	}
}

// counter is a toy model whose states count up to 1 000.
type counter uint16

func (c counter) key() uint16 { return uint16(c) }

func (counter) moveName(uint8) Move { return "count" }

// TestExploreNamesAnOversizedModel: a model that reaches more states than
// the explorer holds stops the search with a panic naming it, rather than
// wrapping around its fixed arrays.
func TestExploreNamesAnOversizedModel(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "the toy model reaches more than 256 states") {
			t.Errorf("recovered %q, want the toy model named", msg)
		}
	}()
	sp := space[counter]{next: func(c counter) (out edges[counter]) {
		if c < 1000 {
			out.add(0, c+1)
		}
		return out
	}}
	sp.explore("toy", 0)
	t.Errorf("explored %d states without a panic", sp.n)
}
