package report

import (
	"strings"
	"testing"

	"github.com/iotbind/iotbind/internal/analysis"
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/devid"
	"github.com/iotbind/iotbind/internal/testbed"
	"github.com/iotbind/iotbind/internal/vendors"
)

func TestWriteNotationTable(t *testing.T) {
	var b strings.Builder
	if err := WriteNotationTable(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Table I", "DevId", "DevToken", "BindToken", "UserToken", "UserPw"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestWriteStateMachine(t *testing.T) {
	var b strings.Builder
	if err := WriteStateMachine(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Figure 2", "initial", "online", "control", "bound", "#1", "#6"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestWriteTaxonomy(t *testing.T) {
	var b strings.Builder
	if err := WriteTaxonomy(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Table II", "A1", "A3-4", "A4-3", "Bind : (DevId, UserToken)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestWriteTable3(t *testing.T) {
	// One real evaluation (cheap) plus a synthetic mismatch to exercise
	// the verdict column.
	p, ok := vendors.ByVendor("D-LINK")
	if !ok {
		t.Fatal("no D-LINK profile")
	}
	vr, err := testbed.EvaluateVendor(p)
	if err != nil {
		t.Fatal(err)
	}
	mismatched := vr
	mismatched.Row.A1 = core.OutcomeFailed // the paper says ✓

	var b strings.Builder
	if err := WriteTable3(&b, []testbed.VendorResult{vr, mismatched}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "MATCH") || !strings.Contains(out, "DIFFERS") {
		t.Errorf("verdict column wrong:\n%s", out)
	}
	if !strings.Contains(out, "1/2 rows match") {
		t.Errorf("match summary wrong:\n%s", out)
	}
	if !strings.Contains(out, "D-LINK") || !strings.Contains(out, "Sent by the app") {
		t.Errorf("design columns missing:\n%s", out)
	}
}

func TestWriteFindings(t *testing.T) {
	p := vendors.WorstCase()
	var b strings.Builder
	if err := WriteFindings(&b, p.Design, analysis.PredictAll(p.Design)); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, p.Design.Name) || !strings.Contains(out, "A4-3") {
		t.Errorf("findings output incomplete:\n%s", out)
	}
}

func TestWriteSearchSpace(t *testing.T) {
	short, err := devid.NewShortDigitsGenerator(6)
	if err != nil {
		t.Fatal(err)
	}
	est, err := devid.Estimate(short, 3000)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteSearchSpace(&b, []devid.EnumerationEstimate{est}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "short-digits") || !strings.Contains(out, "yes") {
		t.Errorf("search-space output incomplete:\n%s", out)
	}
}

func TestVendorRowCells(t *testing.T) {
	row := vendors.PaperRow{
		A1: core.OutcomeUnconfirmed,
		A2: core.OutcomeSucceeded,
		A3: []core.AttackVariant{core.VariantA3x1, core.VariantA3x4},
	}
	a1, a2, a3, a4 := vendorRowCells(row)
	if a1 != "O" || a2 != "✓" || a3 != "A3-1 & A3-4" || a4 != "✗" {
		t.Errorf("cells = %q %q %q %q", a1, a2, a3, a4)
	}
}

func TestTableWriterRejectsRaggedRows(t *testing.T) {
	var b strings.Builder
	tw := newTableWriter(&b, "a", "b")
	tw.row("only-one")
	if err := tw.flush("t"); err == nil {
		t.Error("ragged row accepted")
	}
}
