package testbed

import (
	"fmt"
	"strings"
	"testing"

	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/vendors"
)

// newAllocs is what building one testbed allocates; every cell pays it.
const newAllocs = 29

// cellAllocs is what one live cell — a fresh testbed, the variant staged
// on it, the probe — allocates, per vendor in Table III order and per
// variant in Table II order. Exact counts, so a regression names its
// cell; on a mismatch the test logs the table to paste here, and
// EXPERIMENTS.md ("Layer budget — the attack matrix") says where the
// remaining ones go.
var cellAllocs = [][9]float64{
	{47, 49, 45, 41, 45, 45, 45, 42, 46}, // Belkin
	{43, 49, 41, 45, 45, 41, 45, 42, 45}, // BroadLink
	{49, 49, 47, 47, 50, 47, 50, 44, 43}, // KONKE
	{47, 49, 45, 45, 45, 45, 45, 42, 45}, // Lightstory
	{43, 49, 41, 41, 45, 41, 45, 42, 46}, // Orvibo
	{41, 48, 39, 43, 43, 39, 43, 52, 43}, // OZWI
	{43, 45, 41, 45, 45, 41, 45, 47, 45}, // Philips Hue
	{51, 48, 44, 48, 48, 45, 48, 43, 50}, // TP-LINK
	{41, 43, 39, 43, 43, 39, 43, 40, 43}, // E-Link Smart
	{44, 47, 43, 43, 43, 38, 43, 40, 43}, // D-LINK
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
