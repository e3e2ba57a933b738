package discover_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/iotbind/iotbind/internal/analysis"
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/discover"
	"github.com/iotbind/iotbind/internal/vendors"
)

// findAttack returns the discovered attacks for one (scenario, goal).
func findAttack(attacks []discover.Attack, s discover.Scenario, g discover.Goal) []discover.Attack {
	var out []discover.Attack
	for _, a := range attacks {
		if a.Scenario == s && a.Goal == g {
			out = append(out, a)
		}
	}
	return out
}

func sameSequence(a []discover.Action, b ...discover.Action) bool {
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

// TestDiscoverA4x3ChainOnTPLink is the headline result: the searcher
// reinvents the paper's two-step hijack against device #8 — forge the
// unauthorized unbind, then forge the device-initiated bind — with no
// knowledge of the taxonomy.
func TestDiscoverA4x3ChainOnTPLink(t *testing.T) {
	p, ok := vendors.ByVendor("TP-LINK")
	if !ok {
		t.Fatal("no TP-LINK profile")
	}
	attacks, err := discover.Search(p.Design, 2)
	if err != nil {
		t.Fatal(err)
	}

	hijacks := findAttack(attacks, discover.ScenarioSteadyControl, discover.GoalHijack)
	if len(hijacks) == 0 {
		t.Fatalf("no hijack discovered; attacks: %v", attacks)
	}
	foundChain := false
	for _, h := range hijacks {
		if len(h.Sequence) != 2 {
			t.Errorf("hijack sequence %v has length %d, want minimal 2", h.Sequence, len(h.Sequence))
		}
		if sameSequence(h.Sequence, discover.ActForgeUnbindDevID, discover.ActForgeBind) {
			foundChain = true
		}
	}
	if !foundChain {
		t.Errorf("the A4-3 chain [forge-unbind-devid, forge-bind] was not among: %v", hijacks)
	}

	// Disconnection falls out at depth 1 (A3-1 and A3-4).
	disconnects := findAttack(attacks, discover.ScenarioSteadyControl, discover.GoalDisconnect)
	if len(disconnects) == 0 {
		t.Fatal("no disconnection discovered")
	}
	seqs := make(map[string]bool)
	for _, d := range disconnects {
		if len(d.Sequence) != 1 {
			t.Errorf("disconnect %v not minimal", d.Sequence)
			continue
		}
		seqs[d.Sequence[0].String()] = true
	}
	if !seqs["forge-unbind-devid"] || !seqs["forge-register"] {
		t.Errorf("expected both A3-1 and A3-4 single-step disconnects, got %v", disconnects)
	}
}

// TestDiscoverA4x1OnELink: one forged bind suffices against device #9.
func TestDiscoverA4x1OnELink(t *testing.T) {
	p, ok := vendors.ByVendor("E-Link Smart")
	if !ok {
		t.Fatal("no E-Link profile")
	}
	attacks, err := discover.Search(p.Design, 2)
	if err != nil {
		t.Fatal(err)
	}
	hijacks := findAttack(attacks, discover.ScenarioSteadyControl, discover.GoalHijack)
	if len(hijacks) != 1 || !sameSequence(hijacks[0].Sequence, discover.ActForgeBind) {
		t.Errorf("E-Link hijack = %v, want single [forge-bind]", hijacks)
	}
}

// TestDiscoverA1OnDLink: data injection and stealing with one forged
// heartbeat against device #10, and binding occupation pre-setup.
func TestDiscoverA1OnDLink(t *testing.T) {
	p, ok := vendors.ByVendor("D-LINK")
	if !ok {
		t.Fatal("no D-LINK profile")
	}
	attacks, err := discover.Search(p.Design, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, goal := range []discover.Goal{discover.GoalStealData, discover.GoalInjectData} {
		found := findAttack(attacks, discover.ScenarioSteadyControl, goal)
		if len(found) == 0 {
			t.Errorf("%v not discovered", goal)
			continue
		}
		if !sameSequence(found[0].Sequence, discover.ActForgeDataHeartbeat) {
			t.Errorf("%v via %v, want [forge-data-heartbeat]", goal, found[0].Sequence)
		}
	}
	occupations := findAttack(attacks, discover.ScenarioPreSetup, discover.GoalOccupy)
	if len(occupations) == 0 {
		t.Error("binding occupation not discovered pre-setup")
	}
}

// TestDiscoverA4x2WindowOnOZWI: the setup-window scenario finds the
// camera hijack of device #6.
func TestDiscoverA4x2WindowOnOZWI(t *testing.T) {
	p, ok := vendors.ByVendor("OZWI")
	if !ok {
		t.Fatal("no OZWI profile")
	}
	attacks, err := discover.Search(p.Design, 1)
	if err != nil {
		t.Fatal(err)
	}
	window := findAttack(attacks, discover.ScenarioSetupWindow, discover.GoalHijack)
	if len(window) != 1 || !sameSequence(window[0].Sequence, discover.ActForgeBind) {
		t.Errorf("OZWI window hijack = %v, want [forge-bind]", window)
	}
}

// TestDiscoverNothingAgainstSecureDesigns: the references resist search.
func TestDiscoverNothingAgainstSecureDesigns(t *testing.T) {
	for _, p := range []vendors.Profile{vendors.SecureReference(), vendors.RecommendedPractice()} {
		attacks, err := discover.Search(p.Design, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(attacks) != 0 {
			t.Errorf("%s: discovered %v", p.Design.Name, attacks)
		}
	}
}

// TestDiscoveryAgreesWithAnalyzer cross-validates the searcher against
// the rule-based analyzer on every vendor profile: a goal is discoverable
// exactly when the analyzer predicts a corresponding variant succeeds.
func TestDiscoveryAgreesWithAnalyzer(t *testing.T) {
	for _, p := range vendors.Profiles() {
		p := p
		t.Run(p.Vendor, func(t *testing.T) {
			attacks, err := discover.Search(p.Design, 2)
			if err != nil {
				t.Fatal(err)
			}
			pred := make(map[core.AttackVariant]core.Outcome)
			for _, f := range analysis.PredictAll(p.Design) {
				pred[f.Variant] = f.Outcome
			}
			ok := func(v core.AttackVariant) bool { return pred[v] == core.OutcomeSucceeded }

			wantHijackSteady := ok(core.VariantA4x1) || ok(core.VariantA4x3)
			wantHijackWindow := ok(core.VariantA4x2)
			wantDisconnect := ok(core.VariantA3x1) || ok(core.VariantA3x2) ||
				ok(core.VariantA3x3) || ok(core.VariantA3x4) ||
				ok(core.VariantA4x1) || ok(core.VariantA4x3)
			wantData := ok(core.VariantA1)
			wantOccupy := ok(core.VariantA2)

			checks := []struct {
				name     string
				scenario discover.Scenario
				goal     discover.Goal
				want     bool
			}{
				{"hijack-steady", discover.ScenarioSteadyControl, discover.GoalHijack, wantHijackSteady},
				{"hijack-window", discover.ScenarioSetupWindow, discover.GoalHijack, wantHijackWindow},
				{"disconnect", discover.ScenarioSteadyControl, discover.GoalDisconnect, wantDisconnect},
				{"steal", discover.ScenarioSteadyControl, discover.GoalStealData, wantData},
				{"inject", discover.ScenarioSteadyControl, discover.GoalInjectData, wantData},
				{"occupy", discover.ScenarioPreSetup, discover.GoalOccupy, wantOccupy},
			}
			for _, c := range checks {
				got := len(findAttack(attacks, c.scenario, c.goal)) > 0
				if got != c.want {
					t.Errorf("%s: discovered=%v, analyzer predicts %v\n  attacks: %v", c.name, got, c.want, attacks)
				}
			}
		})
	}
}

// TestSecureDesignsResistDeeperSearch pushes the search one level deeper
// against the secure references: still nothing at depth 3 (5^1+5^2+5^3
// sequences per scenario).
func TestSecureDesignsResistDeeperSearch(t *testing.T) {
	if testing.Short() {
		t.Skip("depth-3 search is slow")
	}
	attacks, err := discover.Search(vendors.SecureReference().Design, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(attacks) != 0 {
		t.Errorf("depth-3 search found %v against the secure reference", attacks)
	}
}

func TestSearchValidatesDepth(t *testing.T) {
	if _, err := discover.Search(vendors.WorstCase().Design, 0); err == nil {
		t.Error("depth 0 accepted")
	}
}

func TestActionAndGoalStrings(t *testing.T) {
	for _, a := range discover.AllActions() {
		if a.String() == "" {
			t.Errorf("action %d has empty name", int(a))
		}
	}
	for _, g := range discover.AllGoals() {
		if g.String() == "" {
			t.Errorf("goal %d has empty name", int(g))
		}
	}
	for _, s := range discover.AllScenarios() {
		if s.String() == "" {
			t.Errorf("scenario %d has empty name", int(s))
		}
	}
	a := discover.Attack{
		Scenario: discover.ScenarioSteadyControl,
		Goal:     discover.GoalHijack,
		Sequence: []discover.Action{discover.ActForgeBind},
	}
	if a.String() == "" {
		t.Error("attack string empty")
	}
}

// TestDepth2Golden pins every (scenario, goal, sequence) the depth-2
// search finds on the ten vendors and the three reference designs to
// testdata/depth2.golden, recorded while discover still carried its own
// copy of the stage/forge/probe loop: launching through testbed.Stage
// must find the same attacks in the same order. To re-record after a
// deliberate change, replace the file with the text this test logs on
// failure.
func TestDepth2Golden(t *testing.T) {
	designs := append(vendors.Profiles(), vendors.SecureReference(), vendors.RecommendedPractice(), vendors.WorstCase())
	var b strings.Builder
	for _, p := range designs {
		attacks, err := discover.Search(p.Design, 2)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s: %d\n", p.Design.Name, len(attacks))
		for _, a := range attacks {
			fmt.Fprintf(&b, "  %v\n", a)
		}
	}
	want, err := os.ReadFile("testdata/depth2.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("depth-2 discovery differs from testdata/depth2.golden; got:\n%s", got)
	}
}
