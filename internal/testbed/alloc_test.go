package testbed

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/vendors"
)

// newAllocs is what building one testbed allocates: a sweep pays it once
// per worker.
const newAllocs = 21

// resetAllocs is what resetting a used testbed allocates: the victim's
// and the attacker's login tokens (the registry derives no pairing proof:
// the cloud checks one in place).
const resetAllocs = 2

// sweepAllocs is what one worker's sweep of the ten vendors allocates
// (AllocsPerRun runs at GOMAXPROCS 1, so EvaluateVendors has one worker):
// one testbed built, each vendor's reset and setup run and captured once,
// its 90 cells staged — seven of them from the set-up world rewound, two
// from the reset one — and probed, and the rows. What remains is what the
// sweep keeps: fresh tokens and session nonces, the data proof of each
// fresh nonce, the inboxes and readings a device drains or a probe
// returns, the two arrays every row is cut from, and the sweep's own
// bookkeeping; refusals, rewound lists and proof checks allocate nothing,
// and a device derives each heartbeat proof once (EXPERIMENTS.md, "Layer
// budget — the attack matrix", part 6).
const sweepAllocs = 72

// cellAllocs is what one live cell allocates on a testbed that ran it
// before — the world rewound from Stage's checkpoint, the variant staged,
// the probes: what each cell of a sweep pays after its vendor's first.
// Per vendor in Table III order and per variant in Table II order. Exact
// counts, so a regression names its cell; on a mismatch the test logs
// the table to paste here, and EXPERIMENTS.md ("Layer budget — the attack
// matrix", parts 1, 2, 4 and 6) says where the remaining ones go.
var cellAllocs = [][9]float64{
	{0, 2, 0, 0, 0, 0, 0, 2, 0}, // Belkin
	{0, 1, 0, 0, 0, 0, 0, 1, 0}, // BroadLink
	{0, 4, 0, 0, 1, 0, 1, 2, 0}, // KONKE
	{0, 1, 0, 0, 0, 0, 0, 1, 0}, // Lightstory
	{0, 1, 0, 0, 0, 0, 0, 1, 0}, // Orvibo
	{0, 0, 0, 0, 0, 0, 0, 1, 0}, // OZWI
	{0, 1, 0, 0, 0, 0, 0, 1, 0}, // Philips Hue
	{0, 3, 0, 0, 0, 1, 0, 1, 1}, // TP-LINK
	{0, 1, 0, 0, 1, 0, 1, 0, 0}, // E-Link Smart
	{2, 0, 0, 0, 0, 0, 0, 0, 0}, // D-LINK
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
				if _, err := tb.evaluate(p.Design, v); err != nil {
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

// twoWorkerSweepAllocs bounds what one ten-vendor sweep on two workers
// allocates: the one-worker sweep's count, the one goroutine beside the
// caller (which works the sweep too) and their WaitGroup, and slack for
// the pool. A bound, not an exact count, because sync.Pool steals only
// from another P's shared list: when both workers run on one P while a
// rig sits in the other P's private slot, the second worker builds a rig,
// whose first sweeps allocate cold; and which rig runs which vendor is
// scheduling. Twenty-sweep means read 73–76 over a hundred runs on a
// 2-CPU host, and 84 once right after the race detector's suite, while
// the sweep started a goroutine per worker (bound sweepAllocs + 3 + 8);
// with the caller working, the least of three means reads 73–74 over ten
// runs where the parent read 74–75.
const twoWorkerSweepAllocs = sweepAllocs + 2 + 8

// TestTwoWorkerSweepAllocations bounds the sweep at GOMAXPROCS 2, which
// AllocsPerRun cannot (it forces one worker), from runtime.MemStats: the
// least of three means over twenty sweeps each, after five that warm the
// pooled rigs, floored as AllocsPerRun floors it. A cold rig only adds
// allocations, so the least mean is the one it touched least, and the
// bound fails only when every batch is over it. The collector is off
// while it counts, as a cycle would empty the pool (a rig survives one in
// its victim cache).
func TestTwoWorkerSweepAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	profiles := vendors.Profiles()
	sweep := func() {
		if _, err := EvaluateVendors(profiles); err != nil {
			t.Fatal(err)
		}
	}
	for range 5 {
		sweep()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const batches, runs = 3, 20
	var means [batches]uint64
	var before, after runtime.MemStats
	for b := range means {
		runtime.ReadMemStats(&before)
		for range runs {
			sweep()
		}
		runtime.ReadMemStats(&after)
		means[b] = (after.Mallocs - before.Mallocs) / runs
	}
	if n := slices.Min(means[:]); n > twoWorkerSweepAllocs {
		t.Errorf("EvaluateVendors on two workers: %v allocations in twenty-sweep means, want at most %v", means, twoWorkerSweepAllocs)
	}
}

// TestRewindAllocatesNothing pins Stage's checkpoints at zero allocations
// once warm: rewinding the rig to the reset world (no shadow) and to the
// set-up one (a shadow, taken back from the store's spares), and
// capturing into a checkpoint that held a world as large.
func TestRewindAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	tb := new(Testbed)
	for _, p := range vendors.Profiles() {
		for _, v := range []core.AttackVariant{core.VariantA2, core.VariantA1} {
			if _, err := tb.evaluate(p.Design, v); err != nil {
				t.Fatal(err)
			}
		}
		if !tb.afterReset.holds(p.Design, config{defaultDeviceID}) || !tb.afterSetup.holds(p.Design, config{defaultDeviceID}) {
			t.Fatalf("%s: a pre-setup and a steady cell left no checkpoints", p.Vendor)
		}
		if n := testing.AllocsPerRun(20, func() {
			tb.rewind(&tb.afterReset, p.Design)
			tb.rewind(&tb.afterSetup, p.Design)
		}); n != 0 {
			t.Errorf("%s: rewinding to the reset and the set-up world: %v allocations, want 0", p.Vendor, n)
		}
		if n := testing.AllocsPerRun(20, func() { tb.capture(&tb.afterSetup) }); n != 0 {
			t.Errorf("%s: capturing the set-up world again: %v allocations, want 0", p.Vendor, n)
		}
	}
}
