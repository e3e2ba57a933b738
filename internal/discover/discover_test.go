package discover

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/iotbind/iotbind/internal/analysis"
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/testbed"
	"github.com/iotbind/iotbind/internal/vendors"
)

// findAttack returns the discovered attacks for one (scenario, goal).
func findAttack(attacks []Attack, s testbed.Scenario, g core.Goal) []Attack {
	var out []Attack
	for _, a := range attacks {
		if a.Scenario == s && a.Goal == g {
			out = append(out, a)
		}
	}
	return out
}

func sameSequence(a []core.Move, b ...core.Move) bool {
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
	attacks, err := Search(p.Design, 2)
	if err != nil {
		t.Fatal(err)
	}

	hijacks := findAttack(attacks, testbed.ScenarioSteadyControl, core.GoalHijack)
	if len(hijacks) == 0 {
		t.Fatalf("no hijack discovered; attacks: %v", attacks)
	}
	foundChain := false
	for _, h := range hijacks {
		if len(h.Sequence) != 2 {
			t.Errorf("hijack sequence %v has length %d, want minimal 2", h.Sequence, len(h.Sequence))
		}
		if sameSequence(h.Sequence, core.MoveForgeUnbindDevID, core.MoveForgeBind) {
			foundChain = true
		}
	}
	if !foundChain {
		t.Errorf("the A4-3 chain [forge-unbind-devid, forge-bind] was not among: %v", hijacks)
	}

	// Disconnection falls out at depth 1 (A3-1 and A3-4).
	disconnects := findAttack(attacks, testbed.ScenarioSteadyControl, core.GoalDisconnect)
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
	attacks, err := Search(p.Design, 2)
	if err != nil {
		t.Fatal(err)
	}
	hijacks := findAttack(attacks, testbed.ScenarioSteadyControl, core.GoalHijack)
	if len(hijacks) != 1 || !sameSequence(hijacks[0].Sequence, core.MoveForgeBind) {
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
	attacks, err := Search(p.Design, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, goal := range []core.Goal{core.GoalStealData, core.GoalInjectData} {
		found := findAttack(attacks, testbed.ScenarioSteadyControl, goal)
		if len(found) == 0 {
			t.Errorf("%v not discovered", goal)
			continue
		}
		if !sameSequence(found[0].Sequence, core.MoveForgeDataHeartbeat) {
			t.Errorf("%v via %v, want [forge-data-heartbeat]", goal, found[0].Sequence)
		}
	}
	occupations := findAttack(attacks, testbed.ScenarioPreSetup, core.GoalOccupy)
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
	attacks, err := Search(p.Design, 1)
	if err != nil {
		t.Fatal(err)
	}
	window := findAttack(attacks, testbed.ScenarioSetupWindow, core.GoalHijack)
	if len(window) != 1 || !sameSequence(window[0].Sequence, core.MoveForgeBind) {
		t.Errorf("OZWI window hijack = %v, want [forge-bind]", window)
	}
}

// TestDiscoverNothingAgainstSecureDesigns: the references resist search.
func TestDiscoverNothingAgainstSecureDesigns(t *testing.T) {
	for _, p := range []vendors.Profile{vendors.SecureReference(), vendors.RecommendedPractice()} {
		attacks, err := Search(p.Design, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(attacks) != 0 {
			t.Errorf("%s: discovered %v", p.Design.Name, attacks)
		}
	}
}

// TestDiscoveryAgreesWithAnalyzer cross-validates the searcher against
// the analyzer on every vendor profile: a goal is discoverable
// exactly when the analyzer predicts a corresponding variant succeeds.
func TestDiscoveryAgreesWithAnalyzer(t *testing.T) {
	for _, p := range vendors.Profiles() {
		p := p
		t.Run(p.Vendor, func(t *testing.T) {
			attacks, err := Search(p.Design, 2)
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
				scenario testbed.Scenario
				goal     core.Goal
				want     bool
			}{
				{"hijack-steady", testbed.ScenarioSteadyControl, core.GoalHijack, wantHijackSteady},
				{"hijack-window", testbed.ScenarioSetupWindow, core.GoalHijack, wantHijackWindow},
				{"disconnect", testbed.ScenarioSteadyControl, core.GoalDisconnect, wantDisconnect},
				{"steal", testbed.ScenarioSteadyControl, core.GoalStealData, wantData},
				{"inject", testbed.ScenarioSteadyControl, core.GoalInjectData, wantData},
				{"occupy", testbed.ScenarioPreSetup, core.GoalOccupy, wantOccupy},
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
	attacks, err := Search(vendors.SecureReference().Design, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(attacks) != 0 {
		t.Errorf("depth-3 search found %v against the secure reference", attacks)
	}
}

func TestSearchValidatesDepth(t *testing.T) {
	if _, err := Search(vendors.WorstCase().Design, 0); err == nil {
		t.Error("depth 0 accepted")
	}
}

// TestActionAndGoalStrings: every action, goal and scenario the searcher
// composes has a name, and a discovered attack renders as text.
func TestActionAndGoalStrings(t *testing.T) {
	for _, a := range allActions() {
		if a.String() == "" {
			t.Errorf("action %d has empty name", int(a))
		}
	}
	for _, g := range core.AllGoals() {
		if g.String() == "" || g.Objective() == "" {
			t.Errorf("goal %d has empty name", int(g))
		}
	}
	for _, s := range allScenarios() {
		if s.String() == "" {
			t.Errorf("scenario %d has empty name", int(s))
		}
	}
	a := Attack{
		Scenario: testbed.ScenarioSteadyControl,
		Goal:     core.GoalHijack,
		Sequence: []core.Move{core.MoveForgeBind},
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
		attacks, err := Search(p.Design, 2)
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
