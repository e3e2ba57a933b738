package report

import (
	"strings"
	"testing"

	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/discover"
	"github.com/iotbind/iotbind/internal/modelcheck"
	"github.com/iotbind/iotbind/internal/testbed"
	"github.com/iotbind/iotbind/internal/vendors"
)

func TestWriteDiscovery(t *testing.T) {
	p := vendors.WorstCase()
	attacks := []discover.Attack{
		{
			Scenario: testbed.ScenarioSteadyControl,
			Goal:     core.GoalHijack,
			Sequence: []core.Move{core.MoveForgeUnbindDevID, core.MoveForgeBind},
		},
	}
	var b strings.Builder
	if err := WriteDiscovery(&b, p.Design, attacks); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"steady-control", "hijack-device", "forge-unbind-devid , forge-bind"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteDiscoveryEmpty(t *testing.T) {
	var b strings.Builder
	if err := WriteDiscovery(&b, vendors.SecureReference().Design, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "no attack sequence") {
		t.Errorf("empty discovery output = %q", b.String())
	}
}

func TestWriteVerification(t *testing.T) {
	p, ok := vendors.ByVendor("TP-LINK")
	if !ok {
		t.Fatal("no TP-LINK profile")
	}
	results, err := modelcheck.Check(p.Design)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteVerification(&b, p.Design, results); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Formal verification", "VIOLATED", "HOLDS", "forge-unbind-devid , forge-bind"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
