package iotbind_test

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
	"time"

	iotbind "github.com/iotbind/iotbind"
	"github.com/iotbind/iotbind/internal/analysis"
	"github.com/iotbind/iotbind/internal/cloud"
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/protocol"
)

// TestPublicAPILifecycle drives the whole public surface the way a
// downstream user would: build a cloud for a vendor design, wire networks
// and agents, run the binding life cycle, launch an attack, and render a
// report.
func TestPublicAPILifecycle(t *testing.T) {
	profile, ok := iotbind.ByVendor("D-LINK")
	if !ok {
		t.Fatal("no D-LINK profile")
	}
	design := profile.Design

	gen, err := profile.IDs.Generator()
	if err != nil {
		t.Fatal(err)
	}
	victimID, err := gen.Generate(1001)
	if err != nil {
		t.Fatal(err)
	}

	registry := iotbind.NewRegistry()
	if err := registry.Add(iotbind.DeviceRecord{ID: victimID, FactorySecret: "s", Model: "plug"}); err != nil {
		t.Fatal(err)
	}
	now := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	svc, err := iotbind.NewCloud(design, registry, cloud.WithClock(func() time.Time { return now }))
	if err != nil {
		t.Fatal(err)
	}

	home := iotbind.NewNetwork("home", "203.0.113.7")
	homeTransport := iotbind.StampSource(svc, home.PublicIP())

	dev, err := iotbind.NewDevice(iotbind.DeviceConfig{
		ID: victimID, FactorySecret: "s", LocalName: "plug", Model: "plug",
	}, design, homeTransport)
	if err != nil {
		t.Fatal(err)
	}
	if err := home.Join(dev); err != nil {
		t.Fatal(err)
	}

	user, err := iotbind.NewApp("user@example.com", "pw", design, homeTransport, home)
	if err != nil {
		t.Fatal(err)
	}
	if err := user.RegisterAccount(); err != nil {
		t.Fatal(err)
	}
	if err := user.Login(); err != nil {
		t.Fatal(err)
	}
	if err := user.SetupDevice("plug", nil); err != nil {
		t.Fatal(err)
	}
	if err := user.Control(victimID, iotbind.Command{ID: "1", Name: "turn_on"}); err != nil {
		t.Fatal(err)
	}
	if err := dev.Heartbeat(); err != nil {
		t.Fatal(err)
	}
	if got := dev.Executed(); len(got) != 1 {
		t.Fatalf("executed = %+v", got)
	}

	// A remote attacker abuses the lax unbinding... D-LINK checks, so
	// the forged unbind must fail.
	lair := iotbind.NewNetwork("lair", "198.51.100.66")
	atk, err := iotbind.NewAttacker("evil@example.com", "pw", design, iotbind.StampSource(svc, lair.PublicIP()))
	if err != nil {
		t.Fatal(err)
	}
	if err := atk.Prepare(); err != nil {
		t.Fatal(err)
	}
	if err := atk.ForgeUnbind(victimID, iotbind.UnbindDevIDUserToken); !errors.Is(err, protocol.ErrNotPermitted) {
		t.Errorf("forged unbind = %v, want ErrNotPermitted", err)
	}
	// But a forged status message passes DevId authentication (A1).
	if _, err := atk.ForgeStatus(victimID, protocol.StatusHeartbeat, nil); err != nil {
		t.Errorf("forged status = %v, want success on a DevId design", err)
	}
}

// TestPublicAPIAnalysisAndReports exercises the analyzer and rendering
// surface.
func TestPublicAPIAnalysisAndReports(t *testing.T) {
	rows, err := analysis.DeriveTaxonomy()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Errorf("taxonomy rows = %d, want 9", len(rows))
	}

	worst := iotbind.WorstCase()
	findings := iotbind.PredictAll(worst.Design)
	succeeded := 0
	for _, f := range findings {
		if f.Outcome == iotbind.OutcomeSucceeded {
			succeeded++
		}
	}
	if succeeded < 4 {
		t.Errorf("worst case has only %d successful attacks", succeeded)
	}

	var b strings.Builder
	if err := iotbind.WriteFindings(&b, worst.Design, findings); err != nil {
		t.Fatal(err)
	}
	if err := iotbind.WriteStateMachine(&b); err != nil {
		t.Fatal(err)
	}
	if err := iotbind.WriteNotationTable(&b); err != nil {
		t.Fatal(err)
	}
	if err := iotbind.WriteTaxonomy(&b); err != nil {
		t.Fatal(err)
	}
	if b.Len() == 0 {
		t.Error("no report output")
	}
}

// TestPublicAPIEvaluate runs live evaluations through the façade.
func TestPublicAPIEvaluate(t *testing.T) {
	p, ok := iotbind.ByVendor("E-Link Smart")
	if !ok {
		t.Fatal("no E-Link profile")
	}
	results, err := iotbind.EvaluateAll(p.Design)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if res.Variant == core.VariantA4x1 && res.Outcome != iotbind.OutcomeSucceeded {
			t.Errorf("A4-1 on E-Link = %v (%s), want ✓", res.Outcome, res.Detail)
		}
	}

	rows, err := iotbind.EvaluateVendors([]iotbind.Profile{p})
	if err != nil {
		t.Fatal(err)
	}
	if !iotbind.MatchesPaper(rows[0].Row, p.Paper) {
		t.Errorf("E-Link row does not match paper: %+v", rows[0].Row)
	}
}

// TestPublicAPIIDSchemes exercises the devid surface.
func TestPublicAPIIDSchemes(t *testing.T) {
	gen, err := iotbind.NewShortDigitsGenerator(6)
	if err != nil {
		t.Fatal(err)
	}
	est, err := iotbind.EstimateEnumeration(gen, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if !est.WithinHour {
		t.Errorf("6-digit sweep %v not within an hour", est.FullSweep)
	}
	var b strings.Builder
	if err := iotbind.WriteSearchSpace(&b, []iotbind.EnumerationEstimate{est}); err != nil {
		t.Fatal(err)
	}
}

// TestRootNamesHaveCallers holds the root package to the surface cmd/ and
// examples/ use: every exported declaration in a non-test root file is
// referenced as iotbind.Name by a .go file under cmd/ or examples/, or is
// named in the type of another kept exported declaration, so that a kept
// signature stays nameable.
func TestRootNamesHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	decls := map[string]ast.Expr{} // exported name -> its declared type, nil if none
	where := map[string]token.Position{}
	add := func(id *ast.Ident, typ ast.Expr) {
		if id.IsExported() {
			decls[id.Name] = typ
			where[id.Name] = fset.Position(id.Pos())
		}
	}
	roots, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range roots {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name, d.Type)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, s.Type)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(n, s.Type)
						}
					}
				}
			}
		}
	}

	kept := map[string]bool{}
	for _, dir := range []string{"cmd", "examples"} {
		err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
			if err != nil || e.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == "iotbind" {
						kept[sel.Sel.Name] = true
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// A root name a kept type mentions bare (not as another package's
	// pkg.Name) is kept too, to a fixed point.
	for grew := true; grew; {
		grew = false
		for name := range kept {
			if decls[name] == nil {
				continue
			}
			ast.Inspect(decls[name], func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					return false
				case *ast.Ident:
					if _, ok := decls[n.Name]; ok && !kept[n.Name] {
						kept[n.Name] = true
						grew = true
					}
				}
				return true
			})
		}
	}
	for name, pos := range where {
		if !kept[name] {
			t.Errorf("%s: %s is exported, but nothing under cmd/ or examples/ references iotbind.%s and no kept declaration's type names it", pos, name, name)
		}
	}
}
