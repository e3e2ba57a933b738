package iotbind_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
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

// TestRootNamesHaveCallers holds every exported top-level name to a caller
// in another package. One go/parser walk reads every .go file, whatever
// its build tags, and feeds two rules:
//
//   - a root name must be referenced as iotbind.Name by a file under cmd/
//     or examples/, the surface those programs use;
//   - a name under internal/ must be referenced as pkg.Name by a file in
//     another directory, test or not (a same-directory package x_test
//     counts as package x).
//
// A name that a kept declaration's type names bare, a kept type's exported
// method signatures included, is kept too, to a fixed point, so that a kept
// signature stays nameable. Only top-level names are held: a syntactic scan
// cannot see interface dispatch, so methods such as attacker.Refusal's
// Format and Unwrap or httpapi.Server.ServeHTTP would look dead while fmt,
// errors and net/http call them.
func TestRootNamesHaveCallers(t *testing.T) {
	const module = "github.com/iotbind/iotbind"
	type name struct{ dir, id string }
	type decl struct {
		pos   token.Position
		types []ast.Node // the declared type and its methods' signatures
	}
	fset := token.NewFileSet()
	decls := map[name]*decl{}
	kept := map[name]bool{}
	declare := func(n name, typ ast.Node, at token.Pos) {
		d := decls[n]
		if d == nil {
			d = &decl{}
			decls[n] = d
		}
		if at.IsValid() {
			d.pos = fset.Position(at)
		}
		if typ != nil {
			d.types = append(d.types, typ)
		}
	}

	err := filepath.WalkDir(".", func(file string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if file != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(file, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(file))
		imported := map[string]string{} // local name -> directory
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			if p == module || strings.HasPrefix(p, module+"/internal/") {
				local := path.Base(p)
				if im.Name != nil {
					local = im.Name.Name
				}
				imported[local] = path.Join(".", strings.TrimPrefix(p, module))
			}
		}
		fromProgram := strings.HasPrefix(dir, "cmd/") || strings.HasPrefix(dir, "examples/")
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok {
					if to, ok := imported[x.Name]; ok && to != dir && (to != "." || fromProgram) {
						kept[name{to, sel.Sel.Name}] = true
					}
				}
			}
			return true
		})

		if strings.HasSuffix(file, "_test.go") || dir != "." && !strings.HasPrefix(dir, "internal/") {
			return nil
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					declare(name{dir, d.Name.Name}, d.Type, d.Name.Pos())
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
					declare(name{dir, id.Name}, d.Type, token.NoPos)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							declare(name{dir, s.Name.Name}, s.Type, s.Name.Pos())
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.IsExported() {
								declare(name{dir, id.Name}, s.Type, id.Pos())
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// A name a kept declaration's type mentions bare (not as another
	// package's pkg.Name, which the walk saw) is kept too.
	for grew := true; grew; {
		grew = false
		for n := range kept {
			d := decls[n]
			if d == nil {
				continue
			}
			for _, typ := range d.types {
				ast.Inspect(typ, func(x ast.Node) bool {
					switch x := x.(type) {
					case *ast.SelectorExpr:
						return false
					case *ast.Ident:
						if m := (name{n.dir, x.Name}); decls[m] != nil && !kept[m] {
							kept[m] = true
							grew = true
						}
					}
					return true
				})
			}
		}
	}

	var failures []string
	internal := 0
	for n, d := range decls {
		switch {
		case n.dir != ".":
			internal++
			if !kept[n] {
				failures = append(failures, fmt.Sprintf("%s: %s is exported, but no file outside %s references %s.%s and no kept declaration's type names it", d.pos, n.id, n.dir, path.Base(n.dir), n.id))
			}
		case !kept[n]:
			failures = append(failures, fmt.Sprintf("%s: %s is exported, but nothing under cmd/ or examples/ references iotbind.%s and no kept declaration's type names it", d.pos, n.id, n.id))
		}
	}
	sort.Strings(failures)
	for _, f := range failures {
		t.Error(f)
	}
	t.Logf("%d exported top-level names under internal/", internal)
}
