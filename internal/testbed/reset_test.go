package testbed

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/iotbind/iotbind/internal/app"
	"github.com/iotbind/iotbind/internal/attacker"
	"github.com/iotbind/iotbind/internal/cloud"
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/device"
	"github.com/iotbind/iotbind/internal/localnet"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/vendors"
)

// world is everything one cell leaves behind that a residue of an earlier
// cell could change: the verdict and its text, the cloud's snapshot with
// its random values masked, the shadow's Figure 2 trace, the registry and
// the home network, and what the device, the victim's app and the attacker
// hold.
type world struct {
	Result       Result
	Err          string
	Snapshot     cloud.Snapshot
	Trace        []core.Transition
	Registry     []string
	Members      []string
	Executed     []protocol.Command
	Received     []protocol.UserData
	SetupMode    bool
	Active       bool
	AppSession   string
	Stolen       []protocol.UserData
	StaleHookRan bool
}

// cell is one experiment of the gate: a variant on a design, with the
// device ID the victim's device gets.
type cell struct {
	design   core.DesignSpec
	variant  core.AttackVariant
	deviceID string
}

// runCell resets tb for c, runs it and records the world it leaves. On a
// used testbed a stale pre-bind hook is installed before the Reset, which
// must drop it.
func runCell(tb *Testbed, c cell, used bool) world {
	staleRan := false
	if used {
		tb.SetPreBindHook(func() { staleRan = true })
	}
	r, err := tb.evaluate(c.design, c.variant, WithDeviceID(c.deviceID))
	w := world{Result: r, StaleHookRan: staleRan}
	if err != nil {
		w.Err = err.Error()
		return w
	}
	svc := tb.Cloud()
	w.Snapshot = masked(svc.Snapshot())
	w.Trace = svc.ShadowTrace(c.deviceID)
	w.Registry = svc.Registry().IDs()
	w.Members = tb.home.Members()
	w.Executed = tb.dev.Executed()
	w.Received = tb.dev.ReceivedData()
	w.SetupMode, w.Active = tb.dev.InSetupMode(), tb.dev.Active()
	w.AppSession = mask(tb.victim.SessionToken(c.deviceID))
	w.Stolen = tb.atk.StolenData()
	return w
}

// mask hides a random value, keeping whether there is one.
func mask(v string) string {
	if v == "" {
		return ""
	}
	return "<random>"
}

// masked hides the snapshot's random values — credential values and
// session nonces — and orders the tokens by what is left of them.
func masked(snap cloud.Snapshot) cloud.Snapshot {
	for i := range snap.Tokens {
		snap.Tokens[i].Value = mask(snap.Tokens[i].Value)
	}
	sort.SliceStable(snap.Tokens, func(i, j int) bool {
		a, b := snap.Tokens[i], snap.Tokens[j]
		return fmt.Sprint(a.Kind, a.Owner, a.Subject, a.IssuedAt.UnixNano()) < fmt.Sprint(b.Kind, b.Owner, b.Subject, b.IssuedAt.UnixNano())
	})
	for i := range snap.Shadows {
		sh := &snap.Shadows[i]
		sh.SessionToken, sh.SessionNonce = mask(sh.SessionToken), mask(sh.SessionNonce)
	}
	return snap
}

// TestResetMatchesFresh is the residue gate of Reset and of Stage's
// checkpoints: a cell run on a testbed that earlier cells used must leave
// exactly the world the cell leaves on a fresh testbed, set up live. One
// testbed runs every vendor cell in forward, reverse and seeded-shuffled
// order, then grouped — each vendor's nine cells back to back, its
// variants in seeded-shuffled order, so every steady cell after its
// vendor's first starts from the rewound set-up world — then crossed, a
// vendor's steady cells rewound after a cell that reset the rig for
// another vendor and device ID, then a seeded
// sample of the design lattice, shuffled with a device ID per cell (so
// that a shard Reset skipped keeps a shadow the next snapshot shows) and
// grouped by design with one device ID each, and last two designs of one
// Name whose unbind forms differ only in content, interleaved: neither
// may be rewound to the other's world.
func TestResetMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	variants := core.AllAttackVariants()
	grouped := func(designs []core.DesignSpec, id func(i int) string) []cell {
		var cells []cell
		for i, d := range designs {
			deviceID := id(i)
			for _, j := range rng.Perm(len(variants)) {
				cells = append(cells, cell{d, variants[j], deviceID})
			}
		}
		return cells
	}
	var vendorDesigns []core.DesignSpec
	var vendorCells []cell
	for _, p := range vendors.Profiles() {
		vendorDesigns = append(vendorDesigns, p.Design)
		for _, v := range variants {
			vendorCells = append(vendorCells, cell{p.Design, v, defaultDeviceID})
		}
	}
	reversed := make([]cell, len(vendorCells))
	for i, c := range vendorCells {
		reversed[len(reversed)-1-i] = c
	}
	shuffled := append([]cell(nil), vendorCells...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	vendorGrouped := grouped(vendorDesigns, func(int) string { return defaultDeviceID })
	// Crossed: each vendor's steady cells with, between them, a cell that
	// resets the next vendor under another device ID, so each is rewound
	// from a world the rig no longer holds.
	var crossed []cell
	for i, a := range vendorDesigns {
		b, idA, idB := vendorDesigns[(i+1)%len(vendorDesigns)], fmt.Sprintf("AA:BB:CC:00:20:%02X", i), fmt.Sprintf("AA:BB:CC:00:21:%02X", i)
		crossed = append(crossed, cell{a, core.VariantA3x1, idA}, cell{b, core.VariantA2, idB},
			cell{a, core.VariantA1, idA}, cell{b, core.VariantA4x2, idB}, cell{a, core.VariantA4x3, idA})
	}

	var sample []core.DesignSpec
	seen := 0
	core.EachDesign(func(d core.DesignSpec) bool { // reservoir sampling
		if seen++; len(sample) < 200 {
			sample = append(sample, d)
		} else if j := rng.Intn(seen); j < len(sample) {
			sample[j] = d
		}
		return true
	})
	var latticeCells []cell
	for i, d := range sample {
		for _, v := range variants {
			id := fmt.Sprintf("AA:BB:CC:%02X:%02X:%02X", i, int(v), rng.Intn(256))
			latticeCells = append(latticeCells, cell{d, v, id})
		}
	}
	rng.Shuffle(len(latticeCells), func(i, j int) { latticeCells[i], latticeCells[j] = latticeCells[j], latticeCells[i] })
	latticeGrouped := grouped(sample, func(i int) string { return fmt.Sprintf("AA:BB:CC:%02X:00:%02X", i, rng.Intn(256)) })

	// Two designs that share their Name and differ in one unbind form.
	devID, tokenOnly := vendors.Profiles()[0].Design, vendors.Profiles()[0].Design
	devID.UnbindForms = []core.UnbindForm{core.UnbindDevIDAlone}
	tokenOnly.UnbindForms = []core.UnbindForm{core.UnbindDevIDUserToken}
	var twins []cell
	for _, v := range variants {
		twins = append(twins, cell{devID, v, defaultDeviceID}, cell{tokenOnly, v, defaultDeviceID})
	}

	tb := new(Testbed)
	for _, order := range []struct {
		name  string
		cells []cell
	}{
		{"forward", vendorCells}, {"reverse", reversed}, {"shuffled", shuffled}, {"grouped", vendorGrouped}, {"crossed", crossed},
		{"lattice", latticeCells}, {"lattice grouped", latticeGrouped}, {"twins", twins},
	} {
		rewound := 0
		for i, c := range order.cells {
			if c.variant.LaunchState() == core.StateControl && tb.afterSetup.holds(c.design, config{c.deviceID}) {
				rewound++
			}
			fresh, reset := runCell(new(Testbed), c, false), runCell(tb, c, true)
			if !reflect.DeepEqual(fresh, reset) {
				t.Fatalf("%s cell %d, %s × %v on %s: the reset testbed differs from a fresh one\nfresh: %+v\nreset: %+v",
					order.name, i, c.design.Name, c.variant, c.deviceID, fresh, reset)
			}
		}
		t.Logf("%s: %d of %d cells started from the rewound set-up world", order.name, rewound, len(order.cells))
		if want := map[string]int{"grouped": 60, "crossed": 20}[order.name]; want != 0 && rewound != want {
			t.Errorf("%s: %d steady cells rewound, want %d", order.name, rewound, want)
		}
	}

	// The twins differ where an unbind form decides the cell, so a world
	// rewound for the wrong twin would have shown above.
	a, err := EvaluateAll(devID)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EvaluateAll(tokenOnly)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, b) {
		t.Error("the two designs sharing a Name give the same results; pick twins that an unbind form tells apart")
	}
}

// TestCopiesCoverEveryField: a checkpoint copies the agents and the home
// network field by field (their CopyFrom, which skips only the lock and,
// in the app and the attacker, the refusal cache, which is not world
// state, and in the network its write count, which CopyFrom moves). A field added to one of these types must be copied there as
// well, and its count here moved with it.
func TestCopiesCoverEveryField(t *testing.T) {
	for _, c := range []struct {
		typ            reflect.Type
		fields, copied int
	}{
		{reflect.TypeOf((*device.Device)(nil)).Elem(), 26, 25},
		{reflect.TypeOf((*app.App)(nil)).Elem(), 12, 10},
		{reflect.TypeOf((*attacker.Attacker)(nil)).Elem(), 9, 7},
		{reflect.TypeOf((*localnet.Network)(nil)).Elem(), 7, 5},
	} {
		if n := c.typ.NumField(); n != c.fields {
			t.Errorf("%v has %d fields, its CopyFrom copies %d and skips %d", c.typ, n, c.copied, c.fields-c.copied)
		}
	}
}
