package vendors

import (
	"testing"

	"github.com/iotbind/iotbind/internal/core"
)

func allProfiles() []Profile {
	return append(Profiles(), SecureReference(), RecommendedPractice(), WorstCase())
}

// TestProfileDesignsValidate: every shipped design is one the emulation
// accepts, under a name no other profile uses (testbeds, goldens and
// reports key on it).
func TestProfileDesignsValidate(t *testing.T) {
	names := make(map[string]bool)
	for _, p := range allProfiles() {
		if err := p.Design.Validate(); err != nil {
			t.Errorf("%s: %v", p.Design.Name, err)
		}
		if names[p.Design.Name] {
			t.Errorf("design name %q used twice", p.Design.Name)
		}
		names[p.Design.Name] = true
	}
}

// TestByVendorRoundTrips: the ten products are numbered 1..10 in Table
// III order and each is found again under its own vendor name.
func TestByVendorRoundTrips(t *testing.T) {
	profiles := Profiles()
	if len(profiles) != 10 {
		t.Fatalf("Profiles() has %d rows, want 10", len(profiles))
	}
	for i, p := range profiles {
		if p.Number != i+1 {
			t.Errorf("%s is numbered %d at row %d", p.Vendor, p.Number, i+1)
		}
		got, ok := ByVendor(p.Vendor)
		if !ok || got.Number != p.Number || got.Design.Name != p.Design.Name {
			t.Errorf("ByVendor(%q) = #%d %s, %v", p.Vendor, got.Number, got.Design.Name, ok)
		}
	}
	if _, ok := ByVendor("Reference"); ok {
		t.Error("ByVendor found a reference design among the Table III products")
	}
}

// TestPaperRowsNameKnownVariants: a published row's A1/A2 cells hold a
// Table III mark, its A3/A4 lists only variants of that class, each at
// most once; the reference designs carry no published row.
func TestPaperRowsNameKnownVariants(t *testing.T) {
	known := make(map[core.AttackVariant]bool)
	for _, v := range core.AllAttackVariants() {
		known[v] = true
	}
	for _, p := range Profiles() {
		for cell, o := range map[string]core.Outcome{"A1": p.Paper.A1, "A2": p.Paper.A2} {
			if o < core.OutcomeFailed || o > core.OutcomeNotApplicable {
				t.Errorf("%s: %s cell holds %v", p.Vendor, cell, o)
			}
		}
		for class, list := range map[core.AttackClass][]core.AttackVariant{
			core.A3DeviceUnbinding: p.Paper.A3,
			core.A4DeviceHijacking: p.Paper.A4,
		} {
			seen := make(map[core.AttackVariant]bool)
			for _, v := range list {
				if !known[v] || v.Class() != class || seen[v] {
					t.Errorf("%s: %v cell lists %v", p.Vendor, class, v)
				}
				seen[v] = true
			}
		}
	}
	for _, p := range []Profile{SecureReference(), RecommendedPractice(), WorstCase()} {
		if p.Number != 0 || p.Paper.A1 != 0 || p.Paper.A2 != 0 || p.Paper.A3 != nil || p.Paper.A4 != nil {
			t.Errorf("%s: a reference design carries a published row", p.Design.Name)
		}
	}
}

// TestIDGeneratorsYieldDistinctIDs: every profile's ID scheme builds its
// generator, and consecutive assignment indexes get different IDs — the
// property an enumeration sweep (and a fleet built from the scheme)
// relies on.
func TestIDGeneratorsYieldDistinctIDs(t *testing.T) {
	for _, p := range allProfiles() {
		gen, err := p.IDs.Generator()
		if err != nil {
			t.Errorf("%s: %v", p.Design.Name, err)
			continue
		}
		if gen.Scheme() != p.IDs.Scheme {
			t.Errorf("%s: generator scheme %v, profile says %v", p.Design.Name, gen.Scheme(), p.IDs.Scheme)
		}
		seen := make(map[string]uint64)
		for i := uint64(0); i < 64; i++ {
			id, err := gen.Generate(i)
			if err != nil || id == "" {
				t.Errorf("%s: Generate(%d) = %q, %v", p.Design.Name, i, id, err)
				break
			}
			if prev, dup := seen[id]; dup {
				t.Errorf("%s: indexes %d and %d both yield %q", p.Design.Name, prev, i, id)
			}
			seen[id] = i
		}
	}
	if _, err := (IDScheme{}).Generator(); err == nil {
		t.Error("the zero IDScheme built a generator")
	}
}
