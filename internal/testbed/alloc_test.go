package testbed

import (
	"fmt"
	"strings"
	"testing"

	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/vendors"
)

// newAllocs is what building one testbed allocates: a fresh cell
// (Evaluate) pays it, a sweep once per worker.
const newAllocs = 21

// resetAllocs is what resetting a used testbed allocates, which every
// cell of a sweep pays: the victim's and the attacker's login tokens.
const resetAllocs = 2

// sweepAllocs is what one worker's sweep of the ten vendors allocates
// (AllocsPerRun runs at GOMAXPROCS 1, so EvaluateVendors has one worker):
// one testbed built, 90 cells on it reset, staged and probed, and the rows.
const sweepAllocs = 938

// cellAllocs is what one live cell — a fresh testbed, the variant staged
// on it, the probe — allocates, per vendor in Table III order and per
// variant in Table II order. Exact counts, so a regression names its
// cell; on a mismatch the test logs the table to paste here, and
// EXPERIMENTS.md ("Layer budget — the attack matrix", parts 1 and 2) says
// where the remaining ones go.
var cellAllocs = [][9]float64{
	{33, 36, 33, 28, 31, 31, 31, 30, 31}, // Belkin
	{31, 36, 29, 31, 31, 29, 31, 30, 31}, // BroadLink
	{36, 38, 36, 36, 37, 34, 37, 33, 32}, // KONKE
	{33, 36, 33, 31, 31, 31, 31, 30, 31}, // Lightstory
	{31, 36, 29, 28, 31, 29, 31, 30, 31}, // Orvibo
	{29, 34, 27, 29, 29, 27, 29, 38, 29}, // OZWI
	{31, 31, 29, 31, 31, 29, 31, 33, 31}, // Philips Hue
	{35, 35, 29, 32, 32, 30, 32, 29, 35}, // TP-LINK
	{29, 30, 27, 29, 30, 27, 30, 28, 29}, // E-Link Smart
	{32, 34, 31, 29, 29, 26, 29, 28, 29}, // D-LINK
}

func TestTestbedCellAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	profiles := vendors.Profiles()
	if n := testing.AllocsPerRun(20, func() {
		if _, err := New(profiles[0].Design); err != nil {
			t.Fatal(err)
		}
	}); n != newAllocs {
		t.Errorf("testbed.New: %v allocations, want %v", n, newAllocs)
	}
	tb, err := New(profiles[0].Design)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := tb.Reset(profiles[1].Design); err != nil {
			t.Fatal(err)
		}
	}); n != resetAllocs {
		t.Errorf("Testbed.Reset: %v allocations, want %v", n, resetAllocs)
	}

	variants := core.AllAttackVariants()
	got := make([][9]float64, len(profiles))
	drift := len(cellAllocs) != len(profiles)
	for i, p := range profiles {
		for j, v := range variants {
			// Twenty runs: AllocsPerRun floors the mean, which absorbs the
			// runtime's own rare allocations (about 1 run in 200 reads high).
			got[i][j] = testing.AllocsPerRun(20, func() {
				if _, err := Evaluate(p.Design, v); err != nil {
					t.Fatal(err)
				}
			})
			if !drift && got[i][j] != cellAllocs[i][j] {
				t.Errorf("%s × %v: %v allocations, want %v", p.Vendor, v, got[i][j], cellAllocs[i][j])
			}
		}
		drift = drift || got[i] != cellAllocs[i]
	}
	if drift {
		var b strings.Builder
		for i, row := range got {
			b.WriteString("\t{")
			for j, n := range row {
				if j > 0 {
					b.WriteString(", ")
				}
				fmt.Fprint(&b, n)
			}
			fmt.Fprintf(&b, "}, // %s\n", profiles[i].Vendor)
		}
		t.Errorf("cell allocations drifted; if intended, cellAllocs is now:\n%s", b.String())
	}
}

// TestEvaluateVendorsAllocations pins the attack_matrix workload's live
// part — the whole ten-vendor sweep on one worker — at its exact count, so
// a regression of the reset-in-place sweep is named before bench runs.
func TestEvaluateVendorsAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	profiles := vendors.Profiles()
	if n := testing.AllocsPerRun(20, func() {
		if _, err := EvaluateVendors(profiles); err != nil {
			t.Fatal(err)
		}
	}); n != sweepAllocs {
		t.Errorf("EvaluateVendors on one worker: %v allocations, want %v", n, sweepAllocs)
	}
}
