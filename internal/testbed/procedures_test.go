package testbed

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/vendors"
)

// TestTable3Golden pins every cell of the live matrix — ten vendors and
// the three reference designs × nine variants — to what the hand-written
// per-variant procedures produced before they became the procedures
// table: the outcome, and the rig's cloud.Stats after the cell, which
// move if a cell issues one cloud request more, fewer or in another
// order. testdata/table3.golden was recorded at the commit before the
// table; a drift here is what explains an allocs_per_op drift on the
// attack_matrix benchmark workload. To re-record after a deliberate
// change, replace the file with the text this test logs on failure.
func TestTable3Golden(t *testing.T) {
	designs := append(vendors.Profiles(), vendors.SecureReference(), vendors.RecommendedPractice(), vendors.WorstCase())
	var b strings.Builder
	for _, p := range designs {
		for _, v := range core.AllAttackVariants() {
			tb, err := New(p.Design)
			if err != nil {
				t.Fatal(err)
			}
			res, err := tb.run(v)
			if err != nil {
				t.Fatalf("%s %v: %v", p.Design.Name, v, err)
			}
			fmt.Fprintf(&b, "%s %v %v %+v\n", p.Design.Name, v, res.Outcome, tb.Cloud().Stats())
		}
	}
	matchGolden(t, "testdata/table3.golden", b.String())
}

// TestDetailsGolden pins the verdict text of every Table III cell — each
// Result.Detail EvaluateVendors reports, the cloud's refusal quoted in it
// — to testdata/details.golden, so how a refusal is built can change
// while what the analyst reads cannot.
func TestDetailsGolden(t *testing.T) {
	rows, err := EvaluateVendors(vendors.Profiles())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, row := range rows {
		for _, r := range row.Results {
			fmt.Fprintf(&b, "%s %v %v %s\n", row.Profile.Design.Name, r.Variant, r.Outcome, r.Detail)
		}
	}
	matchGolden(t, "testdata/details.golden", b.String())
}

// matchGolden compares got with the golden file line by line. To
// re-record after a deliberate change, replace the file with the text it
// logs on failure.
func matchGolden(t *testing.T, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Errorf("%s line %d differs:\n got  %s\n want %s", path, i+1, gotLines[i], wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Errorf("%d lines, %s has %d", len(gotLines), path, len(wantLines))
	}
	t.Logf("full output:\n%s", got)
}

// TestProceduresCoverTableII: every Table II variant has exactly one
// executable row, launched into the victim situation its targeted states
// name and observed by goals that situation is probed for.
func TestProceduresCoverTableII(t *testing.T) {
	variants := core.AllAttackVariants()
	if len(procedures) != len(variants)+1 {
		t.Errorf("procedures has %d rows for %d variants", len(procedures)-1, len(variants))
	}
	scenarioOf := map[core.ShadowState]Scenario{
		core.StateInitial: ScenarioPreSetup,
		core.StateOnline:  ScenarioSetupWindow,
		core.StateBound:   ScenarioSteadyControl,
		core.StateControl: ScenarioSteadyControl,
	}
	for _, v := range variants {
		if int(v) >= len(procedures) {
			t.Errorf("%v has no procedure", v)
			continue
		}
		p := procedures[v]
		if len(p.moves) == 0 || len(p.goals) == 0 || p.won == "" || p.lost == "" {
			t.Errorf("%v: incomplete procedure %+v", v, p)
		}
		for _, g := range append(p.goals, p.unless) {
			if g != 0 && !slices.Contains(p.scenario.Goals(), g) {
				t.Errorf("%v probes %v, which %v is not probed for", v, g, p.scenario)
			}
		}
		for _, target := range v.TargetStates() {
			if scenarioOf[target] != p.scenario {
				t.Errorf("%v targets %v but launches into %v", v, target, p.scenario)
			}
		}
	}
	if _, err := Evaluate(vendors.WorstCase().Design, core.AttackVariant(len(procedures))); err == nil {
		t.Error("Evaluate accepted a variant with no procedure")
	}
}
