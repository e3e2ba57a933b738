package testbed

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/vendors"
)

// TestMatchesPaperRejectsDuplicateRows: cells compare as sets. The old
// comparison built its set from one side only, so a measured [A3-1, A3-2]
// "matched" a published [A3-1, A3-1].
func TestMatchesPaperRejectsDuplicateRows(t *testing.T) {
	const a, b, c = core.VariantA3x1, core.VariantA3x2, core.VariantA3x3
	for _, tc := range []struct {
		name                string
		measured, published []core.AttackVariant
		want                bool
	}{
		{"equal", []core.AttackVariant{a, b}, []core.AttackVariant{a, b}, true},
		{"permuted", []core.AttackVariant{c, a, b}, []core.AttackVariant{b, c, a}, true},
		{"empty and nil", []core.AttackVariant{}, nil, true},
		{"duplicate in the published row", []core.AttackVariant{a, b}, []core.AttackVariant{a, a}, false},
		{"duplicate in the measured row", []core.AttackVariant{a, a}, []core.AttackVariant{a, b}, false},
		{"the same duplicate on both sides", []core.AttackVariant{a, a}, []core.AttackVariant{a, a}, false},
		{"duplicates hiding a difference", []core.AttackVariant{a, a, b}, []core.AttackVariant{a, b, b}, false},
		{"a duplicate against its set", []core.AttackVariant{a, a}, []core.AttackVariant{a}, false},
		{"different", []core.AttackVariant{a}, []core.AttackVariant{b}, false},
		{"subset", []core.AttackVariant{a}, []core.AttackVariant{a, b}, false},
		{"not a Table II variant", []core.AttackVariant{64}, []core.AttackVariant{-1}, false},
	} {
		for _, cell := range []string{"A3", "A4"} {
			m := vendors.PaperRow{A1: core.OutcomeSucceeded, A2: core.OutcomeFailed}
			p := m
			if cell == "A3" {
				m.A3, p.A3 = tc.measured, tc.published
			} else {
				m.A4, p.A4 = tc.measured, tc.published
			}
			if got := MatchesPaper(m, p); got != tc.want {
				t.Errorf("%s, in the %s cell: MatchesPaper = %v, want %v", tc.name, cell, got, tc.want)
			}
		}
	}
}

// TestEvaluateVendorsAbortsOnFirstError: once a profile has failed no
// other is started, and the error returned is the lowest-index one — on
// the sequential path (GOMAXPROCS 1) and on the parallel path alike.
func TestEvaluateVendorsAbortsOnFirstError(t *testing.T) {
	const n = 40
	valid := vendors.Profiles()
	for _, procs := range []int{1, 4} {
		for _, badAt := range []int{0, n - 1} {
			profiles := make([]vendors.Profile, n)
			for i := range profiles {
				profiles[i] = valid[i%len(valid)]
				profiles[i].Number = i
			}
			profiles[badAt] = vendors.Profile{Vendor: "broken"} // the zero DesignSpec is invalid

			prev := runtime.GOMAXPROCS(procs)
			_, err := EvaluateVendors(profiles)
			// The counted sweep holds every profile past the broken one
			// until the sweep has recorded the failure, so each other
			// worker starts at most the one it holds: how far it would get
			// between the broken profile's return and that record does
			// not depend on the scheduler.
			var started atomic.Int64
			var failed atomic.Bool
			_, countedErr := evaluateEach(profiles, func(p vendors.Profile) (VendorResult, error) {
				started.Add(1)
				if p.Vendor == "broken" {
					return EvaluateVendor(p)
				}
				for p.Number > badAt && !failed.Load() {
					runtime.Gosched()
				}
				return VendorResult{Profile: p}, nil
			}, &failed)
			runtime.GOMAXPROCS(prev)

			if err == nil || !strings.Contains(err.Error(), "vendor broken") {
				t.Errorf("GOMAXPROCS %d, invalid design at %d: error %v, want the broken vendor's", procs, badAt, err)
			}
			if countedErr == nil || countedErr.Error() != err.Error() {
				t.Errorf("GOMAXPROCS %d, invalid design at %d: counted sweep returned %v, EvaluateVendors %v", procs, badAt, countedErr, err)
			}
			// Every profile up to the failing one runs; past it, only the
			// one each other worker held.
			if got, max := int(started.Load()), badAt+1+(procs-1); got < badAt+1 || got > max {
				t.Errorf("GOMAXPROCS %d, invalid design at %d: %d profiles started, want %d to %d", procs, badAt, got, badAt+1, max)
			}
		}
	}

	// Two failures: the lower index wins whichever worker hit it.
	profiles := vendors.Profiles()
	profiles[2] = vendors.Profile{Vendor: "broken-2"}
	profiles[3] = vendors.Profile{Vendor: "broken-3"}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		_, err := EvaluateVendors(profiles)
		runtime.GOMAXPROCS(prev)
		if err == nil || !strings.Contains(err.Error(), "vendor broken-2") {
			t.Errorf("GOMAXPROCS %d: error %v, want broken-2's (the lowest index)", procs, err)
		}
	}
}
